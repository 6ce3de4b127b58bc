//! `build-cold-10k`: parse the `bench::synth` corpus sized 10k, cold
//! `knit::build` it with default options, cold `knit::lint` it, load the
//! image and run `__start`. One op is that whole pipeline; ops repeat
//! until the window closes.

use std::time::Instant;

use bench::synth::{self, SynthCorpus, SynthParams};
use knit::{BuildOptions, LintConfig};
use machine::{ExecMode, Machine, PerfCounters};

use crate::report::{Outcome, PHASES};
use crate::trace::{self, Span, Tracer};
use crate::util::{median, ms, nproc, peak_rss_mb, Samples, SetupSchedule};
use crate::{RunConfig, Size};

/// Corpus size (unit declarations) per [`Size`].
pub fn corpus_units(size: Size) -> usize {
    match size {
        Size::Full => 10_000,
        Size::Tiny => 60,
    }
}

/// Set-up repetitions, each a corpus generation and one cold pipeline
/// (median reported).
const SETUP_REPS: usize = 5;

/// What one pipeline op produced.
struct OpResult {
    total_ms: f64,
    parse_ms: f64,
    build_ms: f64,
    lint_ms: f64,
    exec_ms: f64,
    instances: usize,
    units_compiled: usize,
    flatten_groups: usize,
    text_bytes: u64,
    image_hash: u64,
    start_value: i64,
    counters: PerfCounters,
    lint_findings: (usize, usize),
    reference: Option<Result<(i64, PerfCounters), String>>,
}

/// Build options for the corpus: the defaults, plus `main` as the entry
/// `__start` calls.
pub fn options(corpus: &SynthCorpus) -> BuildOptions {
    let mut o = BuildOptions::new(&corpus.root, machine::runtime_symbols());
    o.entry = Some("main".to_string());
    o
}

fn pipeline(
    corpus: &SynthCorpus,
    opts: &BuildOptions,
    tracer: &Tracer,
    op: u64,
    with_reference: bool,
) -> Result<OpResult, String> {
    let root = tracer.scope("op", op, None, 0);

    let s = tracer.scope("knit_lang.parse", op, root.id(), 0);
    let program = corpus.load_program(opts.jobs).map_err(|e| format!("parse: {e}"))?;
    let parse = s.end();

    let s = tracer.scope("knit.build", op, root.id(), 0);
    let report = knit::build(&program, &corpus.tree, opts).map_err(|e| format!("build: {e}"))?;
    let phases: Vec<(String, std::time::Duration)> =
        report.phases.iter().map(|(n, d)| (format!("phase.{n}"), *d)).collect();
    tracer.derived(s.id(), op, 0, s.start(), &phases);
    let build = s.end();

    let s = tracer.scope("knit.lint", op, root.id(), 0);
    let lint = knit::lint(&program, &corpus.tree, opts, &LintConfig::new())
        .map_err(|e| format!("lint: {e}"))?;
    let lint_d = s.end();
    drop(program);

    let image = report.image;
    let reference_image = with_reference.then(|| image.clone());
    let s = tracer.scope("machine.load", op, root.id(), 0);
    let mut m = Machine::new(image).map_err(|e| format!("load: {e}"))?;
    s.end();
    let s = tracer.scope("machine.exec", op, root.id(), 0);
    let start_value = m.call("__start", &[]).map_err(|e| format!("__start: {e}"))?;
    let exec = s.end();
    let total = root.end();

    let image_hash = knit::proto::image_hash(m.image());
    let reference = reference_image.map(|img| {
        let mut r = Machine::new(img).map_err(|e| format!("reference load: {e}"))?;
        r.set_exec_mode(ExecMode::Reference);
        let v = r.call("__start", &[]).map_err(|e| format!("reference __start: {e}"))?;
        Ok((v, r.counters()))
    });
    Ok(OpResult {
        total_ms: ms(total),
        parse_ms: ms(parse),
        build_ms: ms(build),
        lint_ms: ms(lint_d),
        exec_ms: ms(exec),
        instances: report.stats.instances,
        units_compiled: report.stats.units_compiled,
        flatten_groups: report.stats.flatten_groups,
        text_bytes: report.stats.text_size,
        image_hash,
        start_value,
        counters: m.counters(),
        lint_findings: (lint.warnings(), lint.errors()),
        reference,
    })
}

/// The sum check on one traced op's spans: the self times of parse, the
/// build phases and the build's unattributed rest add up to the traced
/// parse + build wall time, no phase sum exceeds the build, and every
/// span's self time adds up to the op's duration.
pub fn sum_check(spans: &[Span]) -> Result<(), String> {
    let st = trace::self_times(spans);
    let find = |name: &str| spans.iter().find(|s| s.name == name);
    let (parse, build, root) = match (find("knit_lang.parse"), find("knit.build"), find("op")) {
        (Some(p), Some(b), Some(r)) => (p, b, r),
        _ => return Err("traced op lacks a parse, build or op span".to_string()),
    };
    let other = st[&build.id];
    if other < 0.0 {
        return Err(format!("build phases sum past the build wall time by {:.1} us", -other));
    }
    let phases: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(build.id))
        .map(|s| {
            if !PHASES.iter().any(|(p, _)| s.name == format!("phase.{p}")) {
                return f64::NAN;
            }
            st[&s.id]
        })
        .sum();
    if phases.is_nan() {
        return Err("unknown span under knit.build".to_string());
    }
    let lhs = st[&parse.id] + phases + other;
    let rhs = parse.dur_us + build.dur_us;
    if (lhs - rhs).abs() > 1e-6 * rhs.max(1.0) {
        return Err(format!("parse + phases + other = {lhs:.3} us, traced wall = {rhs:.3} us"));
    }
    let all: f64 = spans.iter().map(|s| st[&s.id]).sum();
    if (all - root.dur_us).abs() > 1e-6 * root.dur_us.max(1.0) {
        return Err(format!("self times sum to {all:.3} us, op took {:.3} us", root.dur_us));
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let params = SynthParams::sized(corpus_units(cfg.size), cfg.seed);

    // Set-up: generate the corpus sources (the checkout a build starts
    // from) and run one cold pipeline over them, several times spread over
    // the run, reporting the median. The first repetition's corpus is the
    // one measured, and its result the reference every later pipeline is
    // checked against; it also reruns `__start` under Reference, after its
    // timing ends.
    let rep = |with_reference: bool| {
        let t = Instant::now();
        let corpus = synth::generate(&params);
        let generated = t.elapsed().as_secs_f64();
        let opts = options(&corpus);
        pipeline(&corpus, &opts, &Tracer::new(false), 0, with_reference)
            .map(|r| (generated + r.total_ms / 1e3, corpus, opts, r))
            .map_err(|e| format!("set-up pipeline failed: {e}"))
    };
    let mut sched = SetupSchedule::new(SETUP_REPS, cfg.window);
    let (secs, corpus, opts, warm) = match sched.run(|| rep(true)) {
        Ok(r) => r,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let mut setups = vec![secs];
    let mut checked = Vec::new();
    let mut later = |out: &mut Outcome, sched: &mut SetupSchedule| match sched.run(|| rep(false)) {
        Ok((secs, _, _, r)) => {
            setups.push(secs);
            checked.push(r);
        }
        Err(e) => out.fail(e),
    };

    out.env("seed", cfg.seed);
    out.env("nproc", nproc());
    out.env("jobs", opts.jobs);
    out.env("exec_tier", ExecMode::default().as_str());
    out.env("unit_decls", corpus.unit_decls);
    out.env("expected_instances", corpus.expected_instances);

    let traced = Tracer::new(true);
    let plain = Tracer::new(false);

    match &warm.reference {
        Some(Ok((v, c))) if *v == warm.start_value && *c == warm.counters => {}
        Some(Ok((v, c))) => out.fail(format!(
            "__start under Reference returned {v} (default tier {}), counters equal: {}",
            warm.start_value,
            *c == warm.counters
        )),
        Some(Err(e)) => out.fail(e.clone()),
        None => unreachable!("the first set-up pipeline runs the reference tier"),
    }

    let mut results: Vec<(bool, OpResult)> = Vec::new();
    let mut op = 1u64;
    while results.is_empty() || sched.window_open() {
        // Traced runs alternate traced and untraced ops; the difference
        // of their medians is the tracing overhead.
        let is_traced = cfg.trace && op % 2 == 1;
        let tracer = if is_traced { &traced } else { &plain };
        out.attempted += 1;
        match pipeline(&corpus, &opts, tracer, op, false) {
            Ok(r) => results.push((is_traced, r)),
            Err(e) => out.fail(format!("op {op}: {e}")),
        }
        op += 1;
        if sched.due() && sched.window_open() {
            later(&mut out, &mut sched);
        }
    }

    let rss = peak_rss_mb();
    while sched.due() {
        later(&mut out, &mut sched);
    }
    out.env("samples.setup_s", setups.len());

    // Oracles on every op and every later set-up pipeline.
    for r in results.iter().map(|(_, r)| r).chain(&checked) {
        if r.instances != corpus.expected_instances {
            out.fail(format!(
                "elaborated {} instances, generator expects {}",
                r.instances, corpus.expected_instances
            ));
        }
        if r.image_hash != warm.image_hash || r.start_value != warm.start_value {
            out.fail("a cold rebuild of the same inputs gave a different image or result");
        }
        if r.counters != warm.counters || r.lint_findings != warm.lint_findings {
            out.fail("a cold rebuild gave different guest counters or lint findings");
        }
    }

    let col = |f: fn(&OpResult) -> f64, traced: Option<bool>| -> Samples {
        Samples(
            results
                .iter()
                .filter(|(t, _)| traced.is_none_or(|want| *t == want))
                .map(|(_, r)| f(r))
                .collect(),
        )
    };
    let untraced = col(|r| r.total_ms, Some(false));

    out.e2e("setup_s", median(&setups));
    out.e2e(
        "items_per_s",
        (untraced.len() * corpus.expected_instances) as f64 / (untraced.sum() / 1e3).max(1e-9),
    );
    out.e2e("peak_rss_mb", rss);
    out.e2e("text_bytes", warm.text_bytes as f64);

    out.named("op_p50_ms", untraced.median(), "ms");
    out.named("build_s", col(|r| r.build_ms, None).median() / 1e3, "s");
    out.named("lint_s", col(|r| r.lint_ms, None).median() / 1e3, "s");
    out.named("parse_s", col(|r| r.parse_ms, None).median() / 1e3, "s");
    out.named("text_bytes", warm.text_bytes as f64, "bytes");
    out.named("start_cycles", warm.counters.cycles as f64, "cycles");
    out.named("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    out.env("ops.pipeline", results.len());
    out.env("samples.op_p50_ms", untraced.len());
    out.env("lint_warnings", warm.lint_findings.0);
    out.env("lint_errors", warm.lint_findings.1);

    if cfg.trace {
        layer_metrics(&mut out, &traced.spans(), &results);
    }
    out
}

fn layer_metrics(out: &mut Outcome, spans: &[Span], results: &[(bool, OpResult)]) {
    let per_op = trace::by_op(spans);
    let mut by_name: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for (op, spans) in &per_op {
        if let Err(e) = sum_check(spans) {
            out.fail(format!("sum check, op {op}: {e}"));
        }
        let st = trace::self_times(spans);
        for s in spans {
            by_name.entry(s.name.clone()).or_default().push(st[&s.id] / 1e3);
        }
        if let Some(b) = spans.iter().find(|s| s.name == "knit.build") {
            by_name.entry("build.wall".into()).or_default().push(b.dur_us / 1e3);
        }
    }
    let med = |name: &str| by_name.get(name).map(|v| median(v)).unwrap_or(0.0);
    out.layer("parse.ms", med("knit_lang.parse"));
    for (phase, metric) in PHASES {
        out.layer(metric, med(&format!("phase.{phase}")));
    }
    out.layer("build.other_ms", med("knit.build"));
    out.layer("build.wall_ms", med("build.wall"));
    out.layer("lint.ms", med("knit.lint"));
    out.layer("load.ms", med("machine.load"));
    let pick = |f: fn(&OpResult) -> f64| {
        median(&results.iter().filter(|(t, _)| *t).map(|(_, r)| f(r)).collect::<Vec<_>>())
    };
    out.layer("elaborate.instances", pick(|r| r.instances as f64));
    out.layer("compile.units_compiled", pick(|r| r.units_compiled as f64));
    out.layer("flatten.groups", pick(|r| r.flatten_groups as f64));
    out.layer(
        "exec.mips",
        pick(|r| r.counters.instructions as f64 / (r.exec_ms / 1e3).max(1e-9) / 1e6),
    );
    let traced_ms = pick(|r| r.total_ms);
    let plain_ms =
        median(&results.iter().filter(|(t, _)| !*t).map(|(_, r)| r.total_ms).collect::<Vec<_>>());
    if plain_ms > 0.0 {
        out.layer("trace.overhead_pct", (traced_ms / plain_ms - 1.0) * 100.0);
    }
    out.self_times = trace::self_time_by_layer(spans);
    out.spans = spans.to_vec();
}
