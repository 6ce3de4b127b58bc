//! Concurrent composition-server benchmark (`table_serve`): N clients
//! connected to one `knitc serve` engine over a real local socket, all
//! building the ~98-unit deep-lock kernel, then doing edit→rebuild rounds
//! concurrently.
//!
//! Four things are measured, four things are gated:
//!
//! * **cross-client compile dedupe** — client 0 builds cold, the others
//!   build the identical kernel afterwards and must be served entirely
//!   from the shared [`knit::BuildCache`] (gate: dedupe rate > 0 with ≥2
//!   clients; in fact it is 100% of their unit compiles);
//! * **rebuild latency** — each client then edits *its own* filter source
//!   and rebuilds, concurrently with every other client; p50/p99 of the
//!   request round-trip and aggregate throughput are reported, each as
//!   repeated samples (a fresh server per sample) with median and spread;
//! * **per-edit work** — the sessions' [`knit::SessionStats`] deltas over
//!   the edit phase, which repeat exactly: each edit recompiles one unit,
//!   recomputes its link table and exactly the objcopy fingerprints it
//!   re-renames, and relinks reusing the previous symbol resolution
//!   (gate);
//! * **byte-identity** — the wire image of client 0's cold build must
//!   equal a direct in-process [`knit::BuildSession`] build of the same
//!   inputs, byte for byte (gate).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use knit::proto::{self, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server};
use knit::SessionStats;

use crate::deep_lock_kernel_texts;

/// Knobs for [`table_serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Concurrent clients (each with its own session). At least 2.
    pub clients: usize,
    /// Edit→rebuild rounds per client after the cold builds.
    pub edits: usize,
    /// Independent runs (each on a fresh server) the timings are sampled
    /// over.
    pub samples: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions { clients: 4, edits: 8, samples: 5 }
    }
}

impl ServeOptions {
    /// The small CI configuration.
    pub fn smoke() -> ServeOptions {
        ServeOptions { clients: 2, edits: 2, samples: 2 }
    }
}

/// Repeated samples of one timing, with their median and spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// Every sample, in run order.
    pub samples: Vec<f64>,
}

impl Sampled {
    /// The median sample (the lower middle one for an even count).
    pub fn median(&self) -> f64 {
        let mut v = self.samples.clone();
        v.sort_by(f64::total_cmp);
        v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0.0)
    }

    /// `(min, max)` over the samples.
    pub fn spread(&self) -> (f64, f64) {
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (min, max)
    }

    /// `{"samples": [...], "median": m, "spread": [min, max]}`.
    pub fn json(&self, decimals: usize) -> String {
        let f = |v: f64| format!("{v:.decimals$}");
        let (min, max) = self.spread();
        format!(
            "{{\"samples\": [{}], \"median\": {}, \"spread\": [{}, {}]}}",
            self.samples.iter().map(|&v| f(v)).collect::<Vec<_>>().join(", "),
            f(self.median()),
            f(min),
            f(max)
        )
    }
}

/// Session work done by the edit phase, summed over every client: the
/// [`SessionStats`] deltas between the cold builds and the last edit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EditWork {
    /// Edit→rebuild rounds.
    pub edits: usize,
    /// Units that went through the compiler.
    pub unit_compiles: usize,
    /// Per-unit link tables computed.
    pub unit_links: usize,
    /// Instances re-renamed by objcopy.
    pub objcopy: usize,
    /// Per-instance objcopy fingerprints computed.
    pub objcopy_fingerprints: usize,
    /// Final links run.
    pub links: usize,
    /// Link symbol resolutions run.
    pub resolution_runs: usize,
    /// Link symbol resolutions reused.
    pub resolution_reuses: usize,
}

impl EditWork {
    fn between(before: &SessionStats, after: &SessionStats) -> EditWork {
        EditWork {
            edits: after.builds - before.builds,
            unit_compiles: after.unit_compiles.runs - before.unit_compiles.runs,
            unit_links: after.unit_links.runs - before.unit_links.runs,
            objcopy: after.objcopy.runs - before.objcopy.runs,
            objcopy_fingerprints: after.objcopy_fingerprints.runs
                - before.objcopy_fingerprints.runs,
            links: after.link.runs - before.link.runs,
            resolution_runs: after.link_resolution.runs - before.link_resolution.runs,
            resolution_reuses: after.link_resolution.reuses - before.link_resolution.reuses,
        }
    }

    fn add(&mut self, o: EditWork) {
        self.edits += o.edits;
        self.unit_compiles += o.unit_compiles;
        self.unit_links += o.unit_links;
        self.objcopy += o.objcopy;
        self.objcopy_fingerprints += o.objcopy_fingerprints;
        self.links += o.links;
        self.resolution_runs += o.resolution_runs;
        self.resolution_reuses += o.resolution_reuses;
    }

    /// Why this is not edit-proportional work, if it is not: one compile,
    /// one link table and one link reusing the resolution per edit, and a
    /// fingerprint computed for exactly each re-renamed instance.
    fn failures(&self) -> Vec<String> {
        let mut f = Vec::new();
        let per_edit = [
            ("unit compiles", self.unit_compiles),
            ("unit link tables", self.unit_links),
            ("links", self.links),
            ("reused link resolutions", self.resolution_reuses),
        ];
        for (what, n) in per_edit {
            if n != self.edits {
                f.push(format!("{n} {what} for {} one-file edits (expected one each)", self.edits));
            }
        }
        if self.resolution_runs != 0 {
            f.push(format!("{} link resolutions rerun for body-only edits", self.resolution_runs));
        }
        if self.objcopy_fingerprints != self.objcopy || self.objcopy == 0 {
            f.push(format!(
                "{} objcopy fingerprints computed for {} re-renamed instances",
                self.objcopy_fingerprints, self.objcopy
            ));
        }
        f
    }
}

/// Results of one [`table_serve`] run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The options the run used.
    pub options: ServeOptions,
    /// Units compiled by client 0's cold build (the kernel's size).
    pub units: usize,
    /// Rebuilds across one sample's edit phase.
    pub edit_builds: usize,
    /// Edit-phase rebuilds per second, all clients together.
    pub throughput_builds_per_sec: Sampled,
    /// Median edit→rebuild round-trip (µs).
    pub p50_rebuild_us: Sampled,
    /// 99th-percentile edit→rebuild round-trip (µs).
    pub p99_rebuild_us: Sampled,
    /// Follower clients' unit compiles served from the shared cache.
    pub dedupe_hits: u64,
    /// Follower clients' unit compiles that ran `cmini` (should be 0).
    pub dedupe_misses: u64,
    /// `dedupe_hits / (hits + misses)` (0 when there were no followers).
    pub dedupe_rate: f64,
    /// Session work of one sample's edit phase (every sample's is equal).
    pub work: EditWork,
    /// Whether every sample's work was the same.
    pub work_repeats: bool,
    /// Client 0's wire image equals a direct in-process build's, in every
    /// sample.
    pub byte_identical: bool,
}

impl ServeReport {
    /// Human-readable descriptions of every failed gate (empty = pass).
    pub fn failures(&self) -> Vec<String> {
        let mut f = Vec::new();
        if !self.byte_identical {
            f.push("wire image differs from a direct in-process build".to_string());
        }
        if self.options.clients >= 2 && self.dedupe_rate <= 0.0 {
            f.push(format!(
                "no cross-client compile dedupe ({} hits / {} misses)",
                self.dedupe_hits, self.dedupe_misses
            ));
        }
        if self.edit_builds > 0 && self.p99_rebuild_us.median() == 0.0 {
            f.push("p99 rebuild latency measured as zero".to_string());
        }
        if !self.work_repeats {
            f.push("per-edit session work differs between samples".to_string());
        }
        f.extend(self.work.failures());
        f
    }

    /// The report as the schema-v2 JSON `--json` writes: every timing as
    /// repeated samples with median and spread.
    pub fn json(&self) -> String {
        let w = &self.work;
        format!(
            "{{\n  \"version\": 2,\n  \"clients\": {},\n  \"edits_per_client\": {},\n  \"samples\": {},\n  \"units\": {},\n  \"edit_builds\": {},\n  \"throughput_builds_per_sec\": {},\n  \"p50_rebuild_us\": {},\n  \"p99_rebuild_us\": {},\n  \"dedupe_hits\": {},\n  \"dedupe_misses\": {},\n  \"dedupe_rate\": {:.4},\n  \"edit_work\": {{\"edits\": {}, \"unit_compiles\": {}, \"unit_links\": {}, \"objcopy\": {}, \"objcopy_fingerprints\": {}, \"links\": {}, \"link_resolution_runs\": {}, \"link_resolution_reuses\": {}}},\n  \"byte_identical\": {}\n}}\n",
            self.options.clients,
            self.options.edits,
            self.options.samples,
            self.units,
            self.edit_builds,
            self.throughput_builds_per_sec.json(2),
            self.p50_rebuild_us.json(0),
            self.p99_rebuild_us.json(0),
            self.dedupe_hits,
            self.dedupe_misses,
            self.dedupe_rate,
            w.edits,
            w.unit_compiles,
            w.unit_links,
            w.objcopy,
            w.objcopy_fingerprints,
            w.links,
            w.resolution_runs,
            w.resolution_reuses,
            self.byte_identical,
        )
    }
}

fn call(conn: &mut Conn, req: &Request) -> Response {
    match conn.call(req).expect("server connection") {
        Response::Error { diagnostics } => {
            panic!("server error: {}", diagnostics[0].human())
        }
        resp => resp,
    }
}

/// Ship the whole deep-lock kernel into `session` over `conn`.
fn seed(conn: &mut Conn, session: &str) {
    let (units, tree, _) = deep_lock_kernel_texts();
    let mut options = SessionOptions::new("DeepLockKernel");
    options.jobs = Some(1); // measure the server, not the compile pool
    call(conn, &Request::Open { session: session.into(), options });
    for (file, text) in units {
        call(conn, &Request::LoadUnits { session: session.into(), file, text });
    }
    for (path, text) in tree.iter() {
        call(
            conn,
            &Request::UpdateSource {
                session: session.into(),
                path: path.to_string(),
                text: text.to_string(),
            },
        );
    }
}

fn build(
    conn: &mut Conn,
    session: &str,
    want_image: bool,
) -> (proto::BuildOutcome, Option<String>) {
    match call(conn, &Request::Build { session: session.into(), want_image }) {
        Response::Built { outcome, image } => (outcome, image),
        other => panic!("unexpected build response {other:?}"),
    }
}

/// Run the benchmark: spin up a server, fan out clients, measure.
/// Run [`ServeOptions::samples`] independent samples, each on a fresh
/// server, and gate them.
pub fn table_serve(opts: &ServeOptions) -> ServeReport {
    assert!(opts.clients >= 2, "table_serve needs at least 2 clients");
    assert!(opts.samples >= 1, "table_serve needs at least one sample");
    let runs: Vec<Run> = (0..opts.samples).map(|_| one_run(opts)).collect();
    let first = &runs[0];
    let sampled = |f: fn(&Run) -> f64| Sampled { samples: runs.iter().map(f).collect() };
    ServeReport {
        options: opts.clone(),
        units: first.units,
        edit_builds: first.edit_builds,
        throughput_builds_per_sec: sampled(|r| r.throughput),
        p50_rebuild_us: sampled(|r| r.p50 as f64),
        p99_rebuild_us: sampled(|r| r.p99 as f64),
        dedupe_hits: first.dedupe_hits,
        dedupe_misses: first.dedupe_misses,
        dedupe_rate: first.dedupe_rate,
        work: first.work,
        work_repeats: runs.iter().all(|r| r.work == first.work),
        byte_identical: runs.iter().all(|r| r.byte_identical),
    }
}

/// One sample.
struct Run {
    units: usize,
    edit_builds: usize,
    throughput: f64,
    p50: u64,
    p99: u64,
    dedupe_hits: u64,
    dedupe_misses: u64,
    dedupe_rate: f64,
    work: EditWork,
    byte_identical: bool,
}

fn one_run(opts: &ServeOptions) -> Run {
    let engine = Engine::new();
    let server = Server::bind(engine.clone(), "auto").expect("bind local socket");
    let addr = server.addr().to_string();
    let handle = server.spawn();

    // Phase 1 — client 0 builds cold and pins byte-identity against a
    // direct in-process session over the very same inputs.
    let mut first = Conn::connect(&addr).expect("connect");
    seed(&mut first, "client0");
    let (cold, image) = build(&mut first, "client0", true);
    let wire_image = proto::decode_image(&image.expect("image requested")).expect("wire image");
    let byte_identical = {
        let (units, tree, opts) = deep_lock_kernel_texts();
        let mut direct_opts = opts;
        direct_opts.jobs = 1;
        let direct = knit::SessionHandle::new(direct_opts);
        for (file, text) in units {
            direct.load_units(&file, &text).expect("units parse");
        }
        for (path, text) in tree.iter() {
            direct.update_source(path, text);
        }
        direct.build().expect("direct build").image == wire_image
    };

    // Phase 2 — the other clients build the identical kernel concurrently;
    // every unit compile must dedupe against client 0's.
    let followers: Vec<_> = (1..opts.clients)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let session = format!("client{i}");
                let mut conn = Conn::connect(&addr).expect("connect");
                seed(&mut conn, &session);
                let (outcome, _) = build(&mut conn, &session, false);
                (outcome.cache_hits, outcome.cache_misses)
            })
        })
        .collect();
    let mut dedupe_hits = 0u64;
    let mut dedupe_misses = 0u64;
    for t in followers {
        let (h, m) = t.join().expect("follower client");
        dedupe_hits += h as u64;
        dedupe_misses += m as u64;
    }
    let dedupe_rate = if dedupe_hits + dedupe_misses > 0 {
        dedupe_hits as f64 / (dedupe_hits + dedupe_misses) as f64
    } else {
        0.0
    };

    // Phase 3 — concurrent edit→rebuild rounds, one distinct filter file
    // per client so invalidations stay disjoint. All clients start
    // together behind a barrier; throughput is wall-clock over the whole
    // phase, latency is per-request.
    // clients + this thread, so the wall clock starts with the fan-out
    let stats = |i: usize| engine.session(&format!("client{i}")).expect("session").stats();
    let before: Vec<SessionStats> = (0..opts.clients).map(stats).collect();
    let barrier = Arc::new(Barrier::new(opts.clients + 1));
    let editors: Vec<_> = (0..opts.clients)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let edits = opts.edits;
            std::thread::spawn(move || {
                let session = format!("client{i}");
                let mut conn = Conn::connect(&addr).expect("connect");
                let mut latencies = Vec::with_capacity(edits);
                barrier.wait();
                for round in 0..edits {
                    call(&mut conn, &Request::UpdateSource {
                        session: session.clone(),
                        path: format!("filter{i}.c"),
                        text: format!(
                            "int inner_acquire();\nint inner_release();\nstatic int uses;\n\
                             int lock_acquire() {{ uses += {round} + 2; return inner_acquire(); }}\n\
                             int lock_release() {{ return inner_release(); }}\n"
                        ),
                    });
                    let start = Instant::now();
                    let (outcome, _) = build(&mut conn, &session, false);
                    latencies.push(start.elapsed().as_micros() as u64);
                    assert_eq!(outcome.units_compiled, 1, "a one-file edit recompiles one unit");
                }
                latencies
            })
        })
        .collect();
    barrier.wait();
    let phase_start = Instant::now();
    let mut latencies: Vec<u64> = Vec::new();
    for t in editors {
        latencies.extend(t.join().expect("editor client"));
    }
    let phase_secs = phase_start.elapsed().as_secs_f64();
    let mut work = EditWork::default();
    for (i, before) in before.iter().enumerate() {
        work.add(EditWork::between(before, &stats(i)));
    }

    let mut conn = first;
    call(&mut conn, &Request::Shutdown);
    handle.join().expect("clean shutdown");

    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    Run {
        units: cold.units_compiled + cold.units_reused,
        edit_builds: latencies.len(),
        throughput: if phase_secs > 0.0 { latencies.len() as f64 / phase_secs } else { 0.0 },
        p50: pct(0.50),
        p99: pct(0.99),
        dedupe_hits,
        dedupe_misses,
        dedupe_rate,
        work,
        byte_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate() {
        let report = table_serve(&ServeOptions::smoke());
        assert_eq!(report.failures(), Vec::<String>::new());
        assert!(report.byte_identical);
        assert_eq!(report.dedupe_misses, 0, "followers must compile nothing");
        assert!(report.units >= 98, "the deep-lock kernel is ~98 units, got {}", report.units);
        assert_eq!(report.throughput_builds_per_sec.samples.len(), 2);
        assert_eq!(report.work.edits, 4, "2 clients x 2 edits");
        assert_eq!(report.work.resolution_reuses, 4, "every edit relinks on the old resolution");
    }
}
