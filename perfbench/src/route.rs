//! `route-mc4`: build the flattened 4-core sharded Clack router once, load
//! it on a `MultiMachine`, and route the seeded `bench::mc::mc_workload`
//! traffic mix in bursts. One op is one burst: inject it (RSS-sharded)
//! and step the cores round-robin until every input queue drains.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::mc::{mc_workload, McOptions};
use clack::packets::WorkItem;
use clack::{build_clack_router, build_mc_router, ip_router, MultiRouterHarness, RouterHarness};
use knit::BuildReport;
use machine::{BusStats, ExecMode, PerfCounters};

use crate::report::{Outcome, PHASES};
use crate::trace::{self, Tracer};
use crate::util::{median, ms, multiset_digest, nproc, peak_rss_mb, Samples, SetupSchedule};
use crate::{RunConfig, Size};

/// Simulated cores.
pub const NCORES: usize = 4;
/// Output ports of the router.
const PORTS: usize = 2;
/// Set-up repetitions (median reported).
const SETUP_REPS: usize = 9;

/// `(stream packets, burst packets, reference-replay prefix)` per size.
pub fn sizes(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (4096, 64, 256),
        Size::Tiny => (128, 16, 48),
    }
}

/// The seeded traffic stream one pass routes.
pub fn stream(seed: u64, size: Size) -> Vec<WorkItem> {
    mc_workload(&McOptions { packets: sizes(size).0, seed, execs: Vec::new() })
}

type Digests = Vec<(u64, u64)>;

/// Route one pass of `work` in bursts, numbering ops from `next_op`.
/// When `traced` is given, odd-numbered bursts are recorded in it and the
/// others in `plain`. Appends each burst's latency (and whether it was
/// traced) to `lat`, adds the cores' stepping time to `exec_time`, and
/// returns the packets processed.
#[allow(clippy::too_many_arguments)]
fn pass(
    h: &mut MultiRouterHarness,
    work: &[WorkItem],
    burst: usize,
    traced: Option<&Tracer>,
    plain: &Tracer,
    next_op: &mut u64,
    lat: &mut Vec<(bool, f64)>,
    exec_time: &mut Duration,
) -> Result<u64, String> {
    let mut processed = 0u64;
    for chunk in work.chunks(burst) {
        *next_op += 1;
        let op = *next_op;
        let (is_traced, t) = match traced {
            Some(t) if op % 2 == 1 => (true, t),
            _ => (false, plain),
        };
        let root = t.scope("op", op, None, 0);
        let s = t.scope("nic.inject", op, root.id(), 0);
        for (_, pkt) in chunk {
            h.inject(pkt.clone());
        }
        s.end();
        let s = t.scope("machine.exec", op, root.id(), 0);
        loop {
            let n = h.step_round().map_err(|e| format!("router fault: {e}"))?;
            if n == 0 {
                break;
            }
            processed += n as u64;
        }
        *exec_time += s.end();
        lat.push((is_traced, ms(root.end())));
    }
    Ok(processed)
}

fn collect_digests(h: &mut MultiRouterHarness) -> Digests {
    (0..PORTS).map(|p| multiset_digest(&h.collect(p))).collect()
}

/// The single-core router's per-port output multiset digests over `work`:
/// the routing oracle (sharding may reorder frames, never alter or drop
/// them).
fn single_core_digests(work: &[WorkItem]) -> Result<Digests, String> {
    let report = build_clack_router(&ip_router(), false).map_err(|e| format!("{e}"))?;
    let mut h = RouterHarness::new(&report).map_err(|e| format!("{e}"))?;
    for (dev, pkt) in work {
        h.inject(*dev, pkt.clone());
    }
    h.run_until_idle();
    Ok((0..PORTS).map(|p| multiset_digest(&h.collect(p))).collect())
}

#[derive(Debug, PartialEq)]
struct Replay {
    outputs: Vec<Vec<Vec<u8>>>,
    counters: Vec<PerfCounters>,
    bus: BusStats,
}

/// Replay `work` on a fresh harness in `mode`.
fn replay(report: &BuildReport, mode: ExecMode, work: &[WorkItem]) -> Result<Replay, String> {
    let mut h = MultiRouterHarness::new(report, NCORES).map_err(|e| format!("{e}"))?;
    h.set_exec_mode(mode);
    for (_, pkt) in work {
        h.inject(pkt.clone());
    }
    while h.step_round().map_err(|e| format!("{e}"))? > 0 {}
    let outputs = (0..PORTS).map(|p| h.collect(p)).collect();
    let mm = h.machine();
    Ok(Replay {
        outputs,
        counters: (0..NCORES).map(|c| mm.counters(c)).collect(),
        bus: mm.bus_stats(),
    })
}

/// One set-up repetition's times.
struct SetupRep {
    secs: f64,
    build_ms: f64,
    load_ms: f64,
    phases: Vec<(&'static str, Duration)>,
}

/// Build, load, and warm the router with one pass over `work`, checking
/// the pass's output against `oracle`. Returns the times, the build and
/// the warm harness.
fn setup_rep(
    work: &[WorkItem],
    burst: usize,
    exec: ExecMode,
    oracle: &Digests,
) -> Result<(SetupRep, (BuildReport, MultiRouterHarness)), String> {
    let t = Instant::now();
    let report = build_mc_router(NCORES, true).map_err(|e| format!("router build failed: {e}"))?;
    let build_ms = ms(t.elapsed());
    let tl = Instant::now();
    let mut h =
        MultiRouterHarness::new(&report, NCORES).map_err(|e| format!("router load failed: {e}"))?;
    let load_ms = ms(tl.elapsed());
    h.set_exec_mode(exec);
    let (mut lat, mut et, mut n) = (Vec::new(), Duration::ZERO, 0);
    pass(&mut h, work, burst, None, &Tracer::new(false), &mut n, &mut lat, &mut et)
        .map_err(|e| format!("warm-up pass: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    if collect_digests(&mut h) != *oracle {
        return Err("warm-up pass output multiset differs from the single-core router".into());
    }
    let phases = report.phases.clone();
    Ok((SetupRep { secs, build_ms, load_ms, phases }, (report, h)))
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (_, burst, prefix) = sizes(cfg.size);
    let work = stream(cfg.seed, cfg.size);
    let exec = ExecMode::default();
    out.env("seed", cfg.seed);
    out.env("nproc", nproc());
    out.env("jobs", knit::default_jobs());
    out.env("exec_tier", exec.as_str());
    out.env("ncores", NCORES);
    out.env("stream_packets", work.len());
    out.env("burst_packets", burst);

    let oracle = match single_core_digests(&work) {
        Ok(d) => d,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("single-core oracle failed: {e}"));
            return out;
        }
    };

    let traced = Tracer::new(true);
    let plain = Tracer::new(false);

    // Set-up: build, load, and warm the router (one full pass), several
    // times spread over the run; the first build and harness are the ones
    // measured. Of the others only the times are kept.
    let mut sched = SetupSchedule::new(SETUP_REPS, cfg.window);
    let mut reps: Vec<SetupRep> = Vec::new();
    let mut rep = |out: &mut Outcome, sched: &mut SetupSchedule| match sched
        .run(|| setup_rep(&work, burst, exec, &oracle))
    {
        Ok((r, live)) => {
            reps.push(r);
            Some(live)
        }
        Err(e) => {
            out.fail(e);
            None
        }
    };
    let Some((report, mut h)) = rep(&mut out, &mut sched) else {
        out.attempted = 1;
        return out;
    };

    // The measured window: whole passes over the stream.
    let mut lat: Vec<(bool, f64)> = Vec::new();
    let mut exec_time = Duration::ZERO;
    let mut op = 0u64;
    let mut passes = 0u64;
    let mut packets = 0u64;
    let mut first: Option<(Vec<PerfCounters>, BusStats, u64)> = None;
    let instr_before = h.machine().counters_total().instructions;
    while passes == 0 || sched.window_open() {
        let before: Vec<PerfCounters> = (0..NCORES).map(|c| h.machine().counters(c)).collect();
        let bus_before = h.machine().bus_stats();
        let bursts_before = lat.len();
        let tr = cfg.trace.then_some(&traced);
        let res = pass(&mut h, &work, burst, tr, &plain, &mut op, &mut lat, &mut exec_time);
        out.attempted += (lat.len() - bursts_before) as u64;
        match res {
            Ok(n) => packets += n,
            Err(e) => {
                out.fail(format!("pass {passes}: {e}"));
                break;
            }
        }
        if first.is_none() {
            let mm = h.machine();
            let deltas = (0..NCORES).map(|c| mm.counters(c).delta_since(&before[c])).collect();
            first = Some((deltas, mm.bus_stats().delta_since(&bus_before), work.len() as u64));
        }
        if collect_digests(&mut h) != oracle {
            out.fail(format!("pass {passes}: output multiset differs from the single-core router"));
        }
        passes += 1;
        if sched.due() && sched.window_open() {
            rep(&mut out, &mut sched);
        }
    }
    let rss = peak_rss_mb();
    while sched.due() {
        rep(&mut out, &mut sched);
    }
    let instructions = h.machine().counters_total().instructions - instr_before;
    if let Err(e) = h.machine().check_invariants() {
        out.fail(format!("MESI invariants: {e}"));
    }

    // Oracle: a prefix replays bit-identically under Reference.
    let pre = &work[..prefix.min(work.len())];
    match (replay(&report, exec, pre), replay(&report, ExecMode::Reference, pre)) {
        (Ok(a), Ok(b)) if a == b => {}
        (Ok(_), Ok(_)) => out.fail("prefix replay under Reference differs from the default tier"),
        (Err(e), _) | (_, Err(e)) => out.fail(format!("prefix replay: {e}")),
    }

    let (first_counters, first_bus, first_pkts) = first.unwrap_or_default();
    let pk = first_pkts.max(1) as f64;
    let wall_cycles = first_counters.iter().map(|c| c.cycles).max().unwrap_or(0) as f64 / pk;
    let sum = |f: fn(&PerfCounters) -> u64| first_counters.iter().map(f).sum::<u64>() as f64;

    let untraced = Samples(lat.iter().filter(|(t, _)| !*t).map(|(_, l)| *l).collect());
    let untraced_pkts = untraced.len() as f64 * burst as f64;
    out.env("samples.setup_s", reps.len());
    out.e2e("setup_s", median(&reps.iter().map(|r| r.secs).collect::<Vec<_>>()));
    // Every pass routes the same bursts, so each burst is timed once per
    // pass; the rate is the stream's packets over the sum of each burst's
    // fastest untraced time. The host's speed swings by up to ~1.8x for
    // seconds to minutes at a time, and the mean rate follows the share of
    // slow moments in a run, while each burst's fastest time over several
    // hundred passes repeats run to run. The mean is kept as a named number.
    let bursts = work.chunks(burst).count();
    let mut best = vec![f64::INFINITY; bursts];
    for (k, (traced, l)) in lat.iter().enumerate() {
        if !traced {
            best[k % bursts] = best[k % bursts].min(*l);
        }
    }
    let (best_pkts, best_ms) = best
        .iter()
        .zip(work.chunks(burst))
        .filter(|(b, _)| b.is_finite())
        .fold((0.0, 0.0), |(p, t), (b, c)| (p + c.len() as f64, t + b));
    out.e2e("items_per_s", best_pkts / (best_ms / 1e3).max(1e-9));
    out.e2e("peak_rss_mb", rss);
    out.e2e("text_bytes", report.stats.text_size as f64);

    out.named("cycles_per_pkt", wall_cycles, "cycles");
    out.named("total_cycles_per_pkt", sum(|c| c.cycles) / pk, "cycles");
    out.named("mean_pkts_per_s", untraced_pkts / (untraced.sum() / 1e3).max(1e-9), "1/s");
    out.named("op_p50_ms", untraced.median(), "ms");
    if let Some((p, v)) = untraced.tail() {
        out.named(&format!("op_p{p}_ms"), v, "ms");
    }
    out.named("text_bytes", report.stats.text_size as f64, "bytes");
    out.named("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    out.env("ops.burst", lat.len());
    out.env("passes", passes);
    out.env("samples.items_per_s", format!("{passes} per burst"));
    out.env("packets", packets);
    out.env("samples.op_p50_ms", untraced.len());

    if cfg.trace {
        let mut ph: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in &reps {
            for (n, d) in &r.phases {
                ph.entry(n).or_default().push(ms(*d));
            }
        }
        for (phase, metric) in PHASES {
            out.layer(metric, ph.get(phase).map(|v| median(v)).unwrap_or(0.0));
        }
        let build_wall: Vec<f64> = reps.iter().map(|r| r.build_ms).collect();
        let other: Vec<f64> = reps
            .iter()
            .map(|r| r.build_ms - r.phases.iter().map(|(_, d)| ms(*d)).sum::<f64>())
            .collect();
        out.layer("build.other_ms", median(&other));
        out.layer("build.wall_ms", median(&build_wall));
        out.layer("elaborate.instances", report.stats.instances as f64);
        out.layer("compile.units_compiled", report.stats.units_compiled as f64);
        out.layer("flatten.groups", report.stats.flatten_groups as f64);
        out.layer("load.ms", median(&reps.iter().map(|r| r.load_ms).collect::<Vec<_>>()));
        out.layer("exec.mips", instructions as f64 / exec_time.as_secs_f64().max(1e-9) / 1e6);
        out.layer("exec.instrs_per_pkt", sum(|c| c.instructions) / pk);
        out.layer("exec.cycles_per_pkt", wall_cycles);
        out.layer("icache.misses_per_pkt", sum(|c| c.icache_misses) / pk);
        out.layer("icache.stalls_per_pkt", sum(|c| c.ifetch_stall_cycles) / pk);
        out.layer("mesi.bus_stalls_per_pkt", sum(|c| c.bus_stall_cycles) / pk);
        out.layer("mesi.coherence_misses_per_kpkt", sum(|c| c.coherence_misses) * 1e3 / pk);
        out.layer("mesi.invalidations_per_kpkt", sum(|c| c.invalidations) * 1e3 / pk);
        let txns = first_bus.bus_rd + first_bus.bus_rdx + first_bus.bus_upgr + first_bus.writebacks;
        out.layer("mesi.bus_txns_per_pkt", txns as f64 / pk);
        let traced_p50 =
            median(&lat.iter().filter(|(t, _)| *t).map(|(_, l)| *l).collect::<Vec<_>>());
        if untraced.median() > 0.0 {
            out.layer("trace.overhead_pct", (traced_p50 / untraced.median() - 1.0) * 100.0);
        }
        let spans = traced.spans();
        out.self_times = trace::self_time_by_layer(&spans);
        out.spans = spans;
    }
    out
}
