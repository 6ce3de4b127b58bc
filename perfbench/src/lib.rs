//! The repository benchmark: three workloads that drive the Knit
//! reproduction only through its public API, with end-to-end metrics, a
//! per-layer breakdown, and an optional traced run.
//!
//! * `build-cold-10k` — parse, cold-build and lint the 10k-unit
//!   `bench::synth` corpus, then run its `__start`;
//! * `edit-serve-1k` — a composition server on a local socket with two
//!   closed-loop clients editing a 1k-unit corpus and deploying the Clack
//!   router;
//! * `route-mc4` — the flattened 4-core sharded router routing a seeded
//!   traffic mix on a `MultiMachine`.
//!
//! `perfbench/run.py` builds this package and runs one workload; see
//! `perfbench/README.md` for the metric definitions and the interaction
//! map in `perfbench/workloads.json`.

pub mod build_cold;
pub mod edit_serve;
pub mod report;
pub mod route;
pub mod trace;
pub mod util;

use std::time::Duration;

use report::Outcome;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold build + lint of the 10k synth corpus.
    BuildCold,
    /// Served edit→build→deploy loop over two client connections.
    EditServe,
    /// 4-core sharded router traffic.
    Route,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::BuildCold, Workload::EditServe, Workload::Route];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildCold => "build-cold-10k",
            Workload::EditServe => "edit-serve-1k",
            Workload::Route => "route-mc4",
        }
    }

    /// Parse a [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Tiny` runs every
/// workload (every oracle included) in seconds, for the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workload names promise.
    Full,
    /// Small inputs for tests.
    Tiny,
}

/// One run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: equal seeds give equal inputs and op streams.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    match cfg.workload {
        Workload::BuildCold => build_cold::run(cfg),
        Workload::EditServe => edit_serve::run(cfg),
        Workload::Route => route::run(cfg),
    }
}
