//! The benchmark's own tests: seeded inputs repeat, every workload runs
//! at tiny size with every oracle on, the build-cold sum check holds (and
//! catches a missing unattributed row), and metric names are checked.

use std::time::Duration;

use perfbench::build_cold::sum_check;
use perfbench::edit_serve::{OpGen, OpKind};
use perfbench::report::{valid_metric_name, END_TO_END, PER_LAYER};
use perfbench::trace::{self, Span};
use perfbench::{route, run, RunConfig, Size, Workload};

fn tiny(workload: Workload, trace: bool) -> RunConfig {
    RunConfig { workload, seed: 11, window: Duration::from_millis(400), trace, size: Size::Tiny }
}

#[test]
fn the_same_seed_gives_the_same_op_stream_and_edits() {
    let ops = |seed, client| {
        let mut g = OpGen::new(seed, client, Size::Tiny);
        let setup = g.setup_requests().to_vec();
        (setup, (0..40).map(|_| g.next_op()).collect::<Vec<_>>())
    };
    let (setup_a, a) = ops(5, 0);
    let (setup_b, b) = ops(5, 0);
    assert_eq!(setup_a, setup_b);
    assert_eq!(a, b, "equal seeds must give equal ops, edits and bursts");
    assert_ne!(a, ops(6, 0).1, "another seed gives another stream");
    assert_ne!(a, ops(5, 1).1, "clients get distinct streams");
    for kind in [OpKind::Body, OpKind::Unit, OpKind::Deploy] {
        assert!(a.iter().any(|op| op.kind == kind), "40 ops cover {kind:?}");
    }
    assert_eq!(route::stream(3, Size::Tiny), route::stream(3, Size::Tiny));
    assert_ne!(route::stream(3, Size::Tiny), route::stream(4, Size::Tiny));
}

fn check_run(workload: Workload, traced: bool) {
    let out = run(&tiny(workload, traced));
    assert!(out.correct(), "{}: {:?}", workload.name(), out.failures);
    assert!(out.attempted >= 1);
    for (name, value, _) in out.line_metrics(traced) {
        assert!(value.is_finite(), "{name} = {value}");
        if !traced {
            assert!(value > 0.0, "{}: end-to-end metric {name} reads {value}", workload.name());
        }
    }
    for key in ["seed", "nproc", "jobs", "exec_tier", "samples.op_p50_ms"] {
        assert!(out.env.contains_key(key), "{} does not record {key}", workload.name());
    }
    assert!(out.env.keys().any(|k| k.starts_with("ops.")), "op counts per kind");
}

#[test]
fn tiny_build_cold_passes_every_oracle() {
    check_run(Workload::BuildCold, false);
}

#[test]
fn tiny_edit_serve_passes_every_oracle() {
    check_run(Workload::EditServe, false);
}

#[test]
fn tiny_route_passes_every_oracle() {
    check_run(Workload::Route, false);
}

#[test]
fn tiny_traced_runs_pass_every_oracle_and_record_spans() {
    for w in Workload::ALL {
        check_run(w, true);
    }
}

#[test]
fn build_cold_layers_sum_to_the_traced_total() {
    let out = run(&tiny(Workload::BuildCold, true));
    assert!(out.correct(), "{:?}", out.failures);
    let ops = trace::by_op(&out.spans);
    assert!(!ops.is_empty(), "the traced run recorded ops");
    for spans in ops.values() {
        sum_check(spans).expect("sum check");
    }
    // The unattributed build time is its own row, next to every phase.
    for row in ["knit.build", "knit_lang.parse", "phase.compile", "phase.link"] {
        assert!(out.self_times.contains_key(row), "no {row} row");
    }
    let total: f64 = out.self_times.values().map(|v| v.0).sum();
    let roots: f64 = out.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_us / 1e3).sum();
    assert!((total - roots).abs() < 1e-6 * roots.max(1.0), "{total} vs {roots}");
    assert!(out.per_layer["build.other_ms"] >= 0.0);
}

#[test]
fn the_sum_check_rejects_phases_that_overrun_the_build() {
    let span = |id, parent, name: &str, dur_us| Span {
        id,
        parent,
        op: 1,
        name: name.to_string(),
        tid: 0,
        start_us: 0.0,
        dur_us,
        derived: false,
    };
    let good = vec![
        span(1, None, "op", 100.0),
        span(2, Some(1), "knit_lang.parse", 10.0),
        span(3, Some(1), "knit.build", 80.0),
        span(4, Some(3), "phase.compile", 50.0),
        span(5, Some(3), "phase.link", 20.0),
    ];
    sum_check(&good).expect("consistent spans pass");
    let mut overrun = good.clone();
    overrun[3].dur_us = 75.0;
    assert!(sum_check(&overrun).is_err(), "phases longer than the build must fail");
    let mut stray = good.clone();
    stray[4].name = "phase.unknown".to_string();
    assert!(sum_check(&stray).is_err(), "a span that is no phase must fail");
    assert!(sum_check(&good[..2]).is_err(), "a missing build span must fail");
}

#[test]
fn every_declared_metric_name_is_well_formed() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_metric_name(name), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: unit {unit}");
    }
    for bad in ["op p50", "a/b", "x\u{e9}", "-lead", "a:b", ""] {
        assert!(!valid_metric_name(bad), "{bad:?} must be rejected");
    }
}
