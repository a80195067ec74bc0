//! A tiny-budget configuration of every workload, untraced and traced,
//! prints a correct result with exactly the metrics its mode owes.

use std::process::Command;

use alt_perfbench::metrics::{END_TO_END, PER_LAYER};
use serde_json::Value;

fn smoke(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_alt-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--smoke"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    for (trace, names) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect()),
    ] {
        let r = smoke(workload, trace);
        assert_eq!(
            r["correct"].as_bool(),
            Some(true),
            "{workload} trace {trace}: {r:?}"
        );
        assert_eq!(r["failed"].as_u64(), Some(0));
        assert!(r["attempted"].as_u64() >= Some(1));
        let metrics = &r["metrics"];
        for name in &names {
            let value = metrics[*name]["value"].as_f64();
            assert!(
                value.is_some_and(f64::is_finite),
                "{workload} trace {trace}: `{name}` missing"
            );
            assert!(metrics[*name]["unit"].as_str().is_some(), "{name} unit");
        }
        let printed = metrics.as_object().map_or(0, |m| m.len());
        assert_eq!(
            printed,
            names.len(),
            "{workload} trace {trace}: no extra metrics"
        );
    }
}

#[test]
fn tune_r18_smoke() {
    check("tune-r18");
}

#[test]
fn infer_mv2_smoke() {
    check("infer-mv2");
}

#[test]
fn infer_bert_tiny_smoke() {
    check("infer-bert-tiny");
}
