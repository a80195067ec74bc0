//! Figure 10: end-to-end inference performance.
//!
//! Five networks (ResNet-18, MobileNet-V2, BERT-base, BERT-tiny,
//! ResNet3D-18) compiled by a hardware-specific vendor compiler
//! (OpenVINO / TensorRT / Torch), AutoTVM-like, Ansor-like, ALT, and the
//! two ablations ALT-OL (loop-only on channels-last) and ALT-WP
//! (propagation without fusion alignment), on the three platform
//! profiles. Latencies are printed in milliseconds above each normalized
//! bar, as in the paper.
//!
//! Environment: `ALT_BUDGET_SCALE` scales the per-network budget
//! (default 600; paper 20000). `ALT_FIG10_MODELS` restricts to a
//! comma-separated subset (e.g. `R18,MV2`).

use std::collections::HashMap;

use alt_autotune::tuner::TuneConfig;
use alt_autotune::{Handles, Tuner};
use alt_baselines::{alt_ol, alt_wp, ansor_like, autotvm_like, vendor_plan};
use alt_bench::{normalized_performance, scaled, BenchReport, TablePrinter};
use alt_layout::PropagationMode;
use alt_models::{bert_base, bert_tiny, mobilenet_v2, resnet18, resnet3d_18};
use alt_sim::{MachineKind, MachineProfile};
use alt_tensor::Graph;

const SYSTEMS: [&str; 6] = ["VendorC", "AutoTVM", "Ansor", "ALT", "ALT-OL", "ALT-WP"];

fn alt_full_e2e(
    graph: &Graph,
    profile: MachineProfile,
    budget: u64,
    seed: u64,
    observer: alt_autotune::Observer,
    store: Option<std::sync::Arc<alt_store::Store>>,
) -> alt_autotune::tuner::TuneResult {
    // Paper split: 8000/12000 of 20000 => 40%/60%.
    let joint = (budget as f64 * 0.4) as u64;
    let cfg = TuneConfig {
        joint_budget: joint,
        loop_budget: budget - joint,
        propagation: PropagationMode::Full,
        free_input_layouts: false,
        seed,
        jobs: alt_bench::jobs(),
        ..TuneConfig::default()
    };
    let handles = Handles {
        observer,
        store,
        resume: None,
    };
    Tuner::new(graph, profile, cfg, handles).tune()
}

fn workloads(profile: &MachineProfile) -> Vec<(String, Graph)> {
    let filter: Option<Vec<String>> = std::env::var("ALT_FIG10_MODELS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_uppercase()).collect());
    let keep = |name: &str| {
        filter
            .as_ref()
            .map(|f| f.iter().any(|m| name.to_uppercase().starts_with(m)))
            .unwrap_or(true)
    };
    let mut out: Vec<(String, Graph)> = Vec::new();
    match profile.name {
        // Paper Fig. 10a: Intel CPU, batch 1 and 16 (R3D only b1).
        "intel-cpu" => {
            for b in [1i64, 16] {
                out.push((format!("R18-b{b}"), resnet18(b)));
                out.push((format!("MV2-b{b}"), mobilenet_v2(b)));
                out.push((format!("BB-b{b}"), bert_base(b)));
            }
            out.push(("R3D-b1".into(), resnet3d_18(1)));
        }
        // Fig. 10b: NVIDIA GPU, batch 1 and 16 including R3D-b16.
        "nvidia-gpu" => {
            for b in [1i64, 16] {
                out.push((format!("R18-b{b}"), resnet18(b)));
                out.push((format!("MV2-b{b}"), mobilenet_v2(b)));
                out.push((format!("BB-b{b}"), bert_base(b)));
                out.push((format!("R3D-b{b}"), resnet3d_18(b)));
            }
        }
        // Fig. 10c: ARM CPU, batch 1 only, BERT-tiny instead of base.
        _ => {
            out.push(("R18-b1".into(), resnet18(1)));
            out.push(("MV2-b1".into(), mobilenet_v2(1)));
            out.push(("BT-b1".into(), bert_tiny(1)));
            out.push(("R3D-b1".into(), resnet3d_18(1)));
        }
    }
    out.retain(|(n, _)| keep(n));
    out
}

fn main() {
    let budget = scaled(600);
    println!("Fig. 10 reproduction: end-to-end inference (budget {budget}/network)");
    let mut report = BenchReport::new("fig10");
    let store = alt_bench::store_from_env();
    // Winning-schedule cost attribution of the first network per
    // platform, embedded in the JSON envelope.
    let mut profiles = serde_json::Map::default();
    for profile in alt_bench::platforms() {
        let vendor_name = match (profile.kind, profile.name) {
            (MachineKind::Cpu, "intel-cpu") => "OpenVINO-like",
            (MachineKind::Gpu, _) => "TensorRT-like",
            _ => "Torch-like",
        };
        println!("\n## {} (VendorC = {vendor_name})", profile.name);
        let mut headers = vec!["network"];
        headers.extend(SYSTEMS);
        let printer = TablePrinter::new(&headers, &[10, 12, 12, 12, 12, 12, 12]);
        let mut per_case: Vec<HashMap<String, f64>> = Vec::new();
        let mut names = Vec::new();
        let mut alt_wall = 0.0f64;
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
        let (mut store_hits, mut store_misses) = (0u64, 0u64);
        let mut warm_starts = 0u64;
        let mut jstats = alt_bench::JournalStats::new();
        // Per-platform observer (ALT_TIMING, ALT_PROGRESS): every ALT
        // tuning run on this platform folds into one timing phase tree,
        // and each run gets its own in-memory journal.
        let observer = alt_bench::observer_from_env();
        for (name, g) in workloads(&profile) {
            let mut lats: HashMap<String, f64> = HashMap::new();
            // Vendor graph compiler: ARM Torch runs eager (no fusion).
            let fuse = profile.name != "arm-cpu";
            let (vp, vs) = vendor_plan(&g, &profile, fuse);
            let m = alt_autotune::Measurer::new(&g, profile);
            lats.insert("VendorC".into(), m.measure_graph_free(&vp, &vs));
            lats.insert(
                "AutoTVM".into(),
                autotvm_like(&g, profile, budget, 1).latency,
            );
            lats.insert("Ansor".into(), ansor_like(&g, profile, budget, 1).latency);
            let (journal, jsink) = alt_journal::Journal::memory();
            let t0 = std::time::Instant::now();
            let alt = alt_full_e2e(
                &g,
                profile,
                budget,
                1,
                alt_autotune::Observer {
                    journal,
                    ..observer.clone()
                },
                store.clone(),
            );
            alt_wall += t0.elapsed().as_secs_f64();
            jstats.note_run(&jsink, budget);
            alt_bench::verify_winner(
                &mut report,
                &format!("{name} on {}", profile.name),
                &g,
                &alt.plan,
                &alt.sched,
            );
            cache_hits += alt.cache_hits;
            cache_misses += alt.cache_misses;
            store_hits += alt.store_hits;
            store_misses += alt.store_misses;
            warm_starts += u64::from(alt.warm_start);
            report.note_run(alt.measurements, alt.latency);
            if per_case.is_empty() {
                let program = alt_loopir::lower(&g, &alt.plan, &alt.sched);
                let breakdown = alt_sim::Simulator::new(profile).profile_program(&program);
                let prof = alt_profiler::Profile::new(breakdown, &profile);
                profiles.insert(
                    format!("{}/{name}", profile.name),
                    alt_profiler::summary_json(&prof),
                );
                // Native-executor wall clock + calibration for the first
                // network per platform (iteration-capped so the
                // interpreter side stays affordable).
                alt_bench::native_exec_report(
                    &mut report,
                    &alt_bench::NativeExecCase {
                        what: name.clone(),
                        graph: &g,
                        plan: &alt.plan,
                        sched: &alt.sched,
                        profile,
                        seed: 1,
                    },
                );
            }
            lats.insert("ALT".into(), alt.latency);
            lats.insert("ALT-OL".into(), alt_ol(&g, profile, budget, 1).latency);
            let joint = (budget as f64 * 0.4) as u64;
            lats.insert(
                "ALT-WP".into(),
                alt_wp(&g, profile, joint, budget - joint, 1).latency,
            );
            let mut row = vec![name.clone()];
            for sys in SYSTEMS {
                row.push(format!("{:.2}ms", lats[sys] * 1e3));
            }
            printer.row(&row);
            report.push(serde_json::json!({
                "platform": profile.name,
                "network": name,
                "latencies_ms": lats.iter().map(|(k, v)| (k.clone(), v * 1e3)).collect::<HashMap<_, _>>(),
            }));
            per_case.push(lats);
            names.push(name);
        }
        if per_case.is_empty() {
            println!("(no workloads selected on this platform)");
            continue;
        }
        printer.rule();
        let norm = normalized_performance(&per_case, &SYSTEMS);
        let mut row = vec!["norm.".to_string()];
        for sys in SYSTEMS {
            row.push(format!("{:.3}", norm[sys]));
        }
        printer.row(&row);
        let speedup = |a: &str, b: &str| {
            let ratios: Vec<f64> = per_case.iter().map(|c| c[b] / c[a]).collect();
            alt_bench::geomean(&ratios)
        };
        println!(
            "ALT speedup on {}: vs Ansor {:.2}x (paper ~1.4x), vs {vendor_name} {:.2}x, \
             vs ALT-OL {:.2}x, vs ALT-WP {:.2}x",
            profile.name,
            speedup("ALT", "Ansor"),
            speedup("ALT", "VendorC"),
            speedup("ALT", "ALT-OL"),
            speedup("ALT", "ALT-WP"),
        );
        let alt_lats: Vec<f64> = per_case.iter().map(|c| c["ALT"]).collect();
        report.note_metric(
            format!("{}/alt_geomean_latency_s", profile.name),
            alt_bench::geomean(&alt_lats),
        );
        report.note_metric(
            format!("{}/alt_vs_ansor_speedup", profile.name),
            speedup("ALT", "Ansor"),
        );
        // Informational (not regression-gated): tuning wall-clock at
        // ALT_JOBS workers and the memoized-simulation hit rate.
        let lookups = cache_hits + cache_misses;
        let hit_rate = if lookups > 0 {
            cache_hits as f64 / lookups as f64
        } else {
            0.0
        };
        println!(
            "ALT tuning wall-clock on {}: {alt_wall:.2} s at {} job(s); \
             sim-cache hit rate {:.1}% ({cache_hits}/{lookups})",
            profile.name,
            alt_bench::jobs(),
            hit_rate * 100.0
        );
        report.note_metric(format!("{}/tune_wall_s", profile.name), alt_wall);
        report.note_metric(format!("{}/cache_hit_rate", profile.name), hit_rate);
        // Durable-store effectiveness (only with ALT_STORE set): a cold
        // pass records ~0% hit rate; rerunning with the same store
        // warm-starts every network, and the cold-vs-warm tune_wall_s
        // pair is the store's headline saving.
        if store.is_some() {
            let n = workloads(&profile).len() as u64;
            let store_lookups = store_hits + store_misses;
            let store_rate = if store_lookups > 0 {
                store_hits as f64 / store_lookups as f64
            } else {
                0.0
            };
            println!(
                "ALT durable store on {}: {warm_starts}/{n} warm starts; \
                 measurement hit rate {:.1}% ({store_hits}/{store_lookups})",
                profile.name,
                store_rate * 100.0
            );
            report.note_metric(format!("{}/store_hit_rate", profile.name), store_rate);
            report.note_metric(
                format!("{}/store_warm_starts", profile.name),
                warm_starts as f64,
            );
        }
        alt_bench::finish_timing(
            &mut report,
            "fig10",
            profile.name,
            &observer.timing,
            &[
                ("budget", serde_json::json!(budget)),
                ("networks", serde_json::json!(names.len() as u64)),
                ("tune_wall_s", serde_json::json!(alt_wall)),
            ],
        );
        jstats.finish(&mut report, "fig10", profile.name);
    }
    report.set_profile(serde_json::Value::Object(profiles));
    report.write();
}
