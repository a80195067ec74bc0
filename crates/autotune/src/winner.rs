//! Winner records for the durable tuning store (PR 7): the finished
//! result of one tuning *task*, keyed by a task fingerprint covering
//! everything that determines the outcome.
//!
//! Like checkpoints, a winner stores **decisions, not compiler
//! objects**: the committed joint-stage layout points and the flat
//! per-operator schedule snapshots. A warm-started run replays them
//! against a fresh graph — templates are rebuilt and points re-decoded
//! deterministically — so the stored bytes stay small, version-stable,
//! and provably equivalent to re-running the search: the replayed
//! plan/schedule measures bit-identically to the stored `latency_s`.
//!
//! The task fingerprint hashes the graph signature, the machine profile
//! fingerprint, and every `TuneConfig` field that can change the tuning
//! *result* — the same field walk as the run manifest's configuration
//! fingerprint ([`TuneConfig::fingerprint`]). A run with pretrained PPO
//! weights has no task fingerprint at all — the weights are not
//! faithfully hashable, and a wrong warm-start is worse than none.

use alt_error::AltError;
use alt_loopir::hash::Fnv1a;
use alt_tensor::Graph;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{graph_signature, CommitSnap, SchedSnap};
use crate::tuner::TuneConfig;

/// Current winner record format version.
pub const WINNER_VERSION: u64 = 1;

/// The stored outcome of one completed tuning task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WinnerRecord {
    /// Format version (see [`WINNER_VERSION`]).
    pub version: u64,
    /// Signature of the tuned graph (replay validates it).
    pub graph_sig: String,
    /// The task fingerprint this record was stored under (self-describing
    /// for `altc store export`; replay validates it).
    pub task_fp: u64,
    /// The run's RNG seed (provenance).
    pub seed: u64,
    /// Budget the winning run consumed (provenance).
    pub measurements: u64,
    /// Committed joint-stage layout decisions, in commit order.
    pub committed: Vec<CommitSnap>,
    /// Flat schedule snapshot per operator, indexed by operator id.
    pub sched: Vec<SchedSnap>,
    /// The winner's end-to-end latency as measured by the winning run;
    /// replay cross-checks its own measurement against this bit pattern.
    pub latency_s: f64,
}

/// Fingerprint of one tuning task: graph × machine × every result-
/// relevant configuration field. `None` when the configuration cannot be
/// fingerprinted faithfully (pretrained PPO weights), which disables
/// both warm-start lookup and winner publication for the run.
pub fn task_fingerprint(graph: &Graph, profile_fp: u64, cfg: &TuneConfig) -> Option<u64> {
    if cfg.pretrained.is_some() {
        return None;
    }
    let mut h = Fnv1a::new();
    h.tag(0x57); // 'W'
    h.str(&graph_signature(graph));
    h.u64(profile_fp);
    cfg.hash_result_fields(&mut h);
    Some(h.finish())
}

/// Encodes a winner record for the store (JSON; field order is fixed by
/// the struct, so identical runs produce identical bytes).
pub fn encode_winner(w: &WinnerRecord) -> Result<Vec<u8>, AltError> {
    serde_json::to_string(w)
        .map(String::into_bytes)
        .map_err(|e| AltError::Store {
            detail: format!("serializing winner record: {}", e.0),
        })
}

/// Decodes a stored winner payload, validating version, task fingerprint
/// and graph signature against the looked-up task. Any mismatch returns
/// `None` — a foreign or incompatible record reads as a store miss, so a
/// warm start can never replay the wrong winner.
pub fn decode_winner(bytes: &[u8], task_fp: u64, graph_sig: &str) -> Option<WinnerRecord> {
    let text = std::str::from_utf8(bytes).ok()?;
    let w: WinnerRecord = serde_json::from_str(text).ok()?;
    if w.version != WINNER_VERSION || w.task_fp != task_fp || w.graph_sig != graph_sig {
        return None;
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let _ = ops::relu(&mut g, c);
        g
    }

    fn sample(g: &Graph, task_fp: u64) -> WinnerRecord {
        WinnerRecord {
            version: WINNER_VERSION,
            graph_sig: graph_signature(g),
            task_fp,
            seed: 7,
            measurements: 40,
            committed: vec![CommitSnap {
                op: 2,
                point: vec![0, 1],
            }],
            sched: vec![SchedSnap {
                spatial: vec![vec![4]],
                reduce: vec![],
                vectorize: true,
                unroll: false,
                parallel: false,
                fuse: false,
            }],
            latency_s: 1.25e-3,
        }
    }

    #[test]
    fn codec_roundtrips_and_rejects_mismatches() {
        let g = graph();
        let cfg = TuneConfig::default();
        let fp = task_fingerprint(&g, 11, &cfg).unwrap();
        let w = sample(&g, fp);
        let bytes = encode_winner(&w).unwrap();
        let back = decode_winner(&bytes, fp, &w.graph_sig).unwrap();
        assert_eq!(back.committed, w.committed);
        assert_eq!(back.sched, w.sched);
        assert_eq!(back.latency_s.to_bits(), w.latency_s.to_bits());
        // Wrong task, wrong graph, torn payload: all read as misses.
        assert!(decode_winner(&bytes, fp ^ 1, &w.graph_sig).is_none());
        assert!(decode_winner(&bytes, fp, "0000:0ops").is_none());
        assert!(decode_winner(&bytes[..bytes.len() / 2], fp, &w.graph_sig).is_none());
        let mut vbad = w.clone();
        vbad.version = WINNER_VERSION + 1;
        let bytes = encode_winner(&vbad).unwrap();
        assert!(decode_winner(&bytes, fp, &w.graph_sig).is_none());
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = graph();
        let w = sample(&g, 5);
        assert_eq!(encode_winner(&w).unwrap(), encode_winner(&w).unwrap());
    }

    #[test]
    fn fingerprint_covers_result_relevant_config() {
        let g = graph();
        let base = TuneConfig::default();
        let fp = task_fingerprint(&g, 11, &base).unwrap();
        // Same config, same fingerprint.
        assert_eq!(task_fingerprint(&g, 11, &base.clone()), Some(fp));
        // Observability plumbing does not move it...
        let mut t = base.clone();
        t.jobs = 8;
        t.checkpoint_every = 100;
        t.halt_after = Some(10);
        t.trace = Some("t.jsonl".into());
        t.store = Some("s.alts".into());
        assert_eq!(task_fingerprint(&g, 11, &t), Some(fp));
        // ...while anything result-relevant does.
        let mut t = base.clone();
        t.seed = 1;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.loop_budget += 1;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.verify = false;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.advanced_layouts = true;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.fault_rate = 0.1;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.fixed_layout = Some(crate::tuner::FixedLayout::ChannelTiled(8));
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        // A different machine moves it too.
        assert_ne!(task_fingerprint(&g, 12, &base), Some(fp));
        // Pretrained weights disable fingerprinting entirely.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut t = base.clone();
        t.pretrained = Some(crate::ppo::PpoWeights {
            actor: crate::nn::Mlp::new(4, 4, 4, &mut rng),
            critic: crate::nn::Mlp::new(4, 4, 1, &mut rng),
        });
        assert_eq!(task_fingerprint(&g, 11, &t), None);
    }

    #[test]
    fn on_disk_fingerprints_are_pinned() {
        // Stores and checkpoints written by earlier builds must keep
        // matching: these literals are the values those builds computed
        // for this graph on the Intel profile.
        let g = graph();
        let profile_fp = alt_sim::profile_fingerprint(&alt_sim::intel_cpu());
        assert_eq!(graph_signature(&g), "b30e9f899ff4100c:2ops");
        assert_eq!(profile_fp, 0xff83_a8e0_71d5_51af);
        let base = TuneConfig::default();
        assert_eq!(
            task_fingerprint(&g, profile_fp, &base),
            Some(0xf73a_48a8_2059_052e)
        );
        let faulted = TuneConfig {
            fault_rate: 0.1,
            ..base
        };
        assert_eq!(
            task_fingerprint(&g, profile_fp, &faulted),
            Some(0x667b_ba7e_a577_c019)
        );
    }
}
