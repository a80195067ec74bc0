//! `BENCHMARK.json` mirrors the metric and workload tables exactly, and
//! every name and per-layer mapping is well formed.

use alt_perfbench::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use alt_perfbench::Workload;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn entries<'a>(b: &'a Value, key: &str) -> &'a Vec<Value> {
    b[key]
        .as_array()
        .unwrap_or_else(|| panic!("`{key}` is a list"))
}

fn field<'a>(e: &'a Value, key: &str) -> &'a str {
    e[key]
        .as_str()
        .unwrap_or_else(|| panic!("`{key}` is a string in {e:?}"))
}

#[test]
fn every_metric_and_workload_name_is_well_formed_and_unique() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for n in &names {
        assert!(is_name(n), "bad name `{n}`");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names are unique");
    for w in WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
}

#[test]
fn benchmark_json_mirrors_the_tables() {
    let b = benchmark_json();
    let workloads = entries(&b, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (e, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!((field(e, "name"), field(e, "why")), (w.name, w.why));
    }
    let e2e = entries(&b, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (e, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(field(e, "name"), m.name);
        assert_eq!(field(e, "unit"), m.unit);
        assert_eq!(field(e, "better"), m.better.as_str());
        assert_eq!(e["bound"].as_f64(), Some(m.bound), "{}", m.name);
    }
    let layers = entries(&b, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (e, m) in layers.iter().zip(PER_LAYER) {
        assert_eq!(field(e, "name"), m.name);
        assert_eq!(field(e, "unit"), m.unit);
        assert_eq!(field(e, "better"), m.better.as_str());
    }
    for w in WORKLOADS {
        assert!(
            Workload::parse(w.name).is_some(),
            "the command line knows `{}`",
            w.name
        );
    }
}

#[test]
fn setup_s_has_the_largest_bound() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    for m in END_TO_END {
        assert!(
            m.bound > 0.0 && m.bound <= setup.bound && m.bound <= 0.25,
            "{}",
            m.name
        );
    }
}

#[test]
fn every_per_layer_metric_names_the_end_to_end_metric_and_workloads_it_moves() {
    for m in PER_LAYER {
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} moves unknown metric `{}`",
            m.name,
            m.moves
        );
        assert!(!m.on.is_empty(), "{} names no workload", m.name);
        for w in m.on {
            assert!(
                WORKLOADS.iter().any(|g| g.name == *w),
                "{} names `{w}`, which is not a gated workload",
                m.name
            );
        }
    }
}
