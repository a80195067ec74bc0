//! The ALT auto-tuning framework (paper §5).
//!
//! * [`space`] — pruned layout templates (§5.1) and loop spaces.
//! * [`nn`] / [`ppo`] — from-scratch MLPs and PPO-clip (normalized
//!   one-step advantages, shared critic, §5.2), including pretraining
//!   ([`pretrain`], Fig. 11).
//! * [`gbt`] — the boosted-tree cost model (§5.2.3) with program
//!   [`features`].
//! * [`measure`] — budget-accounted measurement against the hardware
//!   model.
//! * [`observe`] — the tuner's one candidate event and the [`Observer`]
//!   that derives the trace, journal and progress heartbeat from it.
//! * [`tuner`] — the two-stage joint tuner with the cross-exploration
//!   architecture (Fig. 8).
//! * [`fault`] / [`rng`] — seeded fault injection drawing from the
//!   tuner's own random stream, for robustness testing.
//! * [`checkpoint`] — serializable tuner state: a killed run resumes
//!   from its last checkpoint at the exact budget point.

pub mod checkpoint;
pub mod fault;
pub mod features;
pub mod gbt;
pub mod measure;
pub mod nn;
pub mod observe;
pub mod parallel;
pub mod ppo;
pub mod pretrain;
pub mod progress;
pub mod rng;
pub mod space;
pub mod tuner;
pub mod winner;

pub use checkpoint::TunerCheckpoint;
pub use fault::{Fault, FaultConfig, FaultInjector};
pub use gbt::{GbtModel, GbtParams};
pub use measure::Measurer;
pub use observe::Observer;
pub use parallel::ordered_map;
pub use ppo::{CriticState, PpoAgent, PpoWeights, SharedCritic};
pub use pretrain::{pretrain_ppo, tune_with_pretraining};
pub use progress::Progress;
pub use rng::SharedRng;
pub use space::{
    build_layout_template, build_layout_template_ex, build_loop_space, LayoutTemplate, Point, Space,
};
pub use tuner::{
    apply_fixed_layout, base_schedule, tune_graph, FixedLayout, LayoutSearch, TuneConfig,
    TuneResult, Tuner,
};
pub use winner::{decode_winner, encode_winner, task_fingerprint, WinnerRecord, WINNER_VERSION};
