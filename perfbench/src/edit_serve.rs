//! `edit-serve-1k`: a composition server on a local socket and a closed
//! loop of client connections. Each client holds one session with the
//! 1k-unit synth corpus and one with the 24-unit Clack router, and runs a
//! seeded op mix:
//!
//! * **body** — rewrite one synth unit's C body, then `build`;
//! * **unit** — toggle a synth unit's `constraints` line or an
//!   initializer's `depends` line (re-running the checker or the
//!   scheduler), then `build`;
//! * **deploy** — edit a router element's C file, `build` with the image,
//!   decode it, load it on a `Machine`, and push a seeded packet burst.
//!
//! Each deploy burst's frames and counters are checked against a
//! Reference-tier run as soon as the op's timing ends. After the window,
//! every served image hash is checked against a replay of the op stream,
//! regenerated from the seed, through an in-process `Engine`, and each
//! session's final state against a cold `knit::build`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use bench::synth::{self, SynthCorpus, SynthParams};
use clack::packets::{self, WorkItem, WorkloadOptions};
use cobj::Image;
use knit::proto::{self, BuildOutcome, Request, Response, SessionOptions};
use knit::server::{Conn, Engine, Server, ServerHandle};
use knit::{BuildOptions, Program, SourceTree};
use machine::{ExecMode, Machine, PerfCounters};

use crate::report::{Outcome, PHASES};
use crate::trace::{self, Tracer};
use crate::util::{median, ms, nproc, peak_rss_mb, Rng, Samples};
use crate::{RunConfig, Size};

/// Client connections (capped at the host's core count).
pub const MAX_CLIENTS: usize = 2;
/// Set-up repetitions (median reported), half before the window and half
/// after it.
const SETUP_REPS: usize = 4;
/// The op mix as one block of ops; each client runs the block over and
/// over, each time in a seeded shuffled order, so the ratios (8 body, 3
/// unit, 1 deploy) hold exactly at every block boundary. The ratios are
/// an assumption, not a recorded usage trace: a developer edits many
/// times per deploy. A deploy costs about five edits (most of it the
/// client decoding the image's wire line), so with one deploy per eleven
/// edits the edits take about three quarters of the client time as well
/// as most of the ops; the run reports the measured time share of each
/// kind.
pub const BLOCK: [OpKind; 12] = [
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Body,
    OpKind::Unit,
    OpKind::Unit,
    OpKind::Unit,
    OpKind::Deploy,
];
/// Router element files a deploy edits (one per deploy, seeded choice).
pub const ROUTER_FILES: [&str; 4] = ["counter.c", "dec_ttl.c", "check_ip.c", "lookup_route.c"];
/// The router's compound unit.
const ROUTER_ROOT: &str = "GenRouter";
/// Deploys whose wire line is re-decoded to time `Response::from_json`.
const DECODE_SAMPLES: usize = 3;
/// Ops (all clients together) after which peak RSS is read. The server's
/// compile cache keeps every distinct object it compiled, so the
/// high-water mark grows with each edit; reading it after a fixed number
/// of ops keeps it from growing with throughput. A run that completes
/// fewer ops reads it at the window's end.
const RSS_AFTER_OPS: usize = 256;

/// `(synth units, packets per deploy burst)` per size.
pub fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (1000, 32),
        Size::Tiny => (40, 8),
    }
}

/// How many clients run on this host.
pub fn clients() -> usize {
    MAX_CLIENTS.min(nproc()).max(1)
}

/// The three op kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Synth C-body edit + build.
    Body,
    /// Synth `.unit` edit + build.
    Unit,
    /// Router element edit + build with image + load + packet burst.
    Deploy,
}

impl OpKind {
    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Body => "body",
            OpKind::Unit => "unit",
            OpKind::Deploy => "deploy",
        }
    }
}

/// One client op: the requests to send (the last is the build) and, for
/// deploys, the packet burst.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Position in the client's stream (1-based).
    pub seq: u64,
    /// Which kind.
    pub kind: OpKind,
    /// Requests, in order; the last is a `Build`.
    pub requests: Vec<Request>,
    /// Frames to push through a deployed router.
    pub burst: Vec<WorkItem>,
}

/// The 24-unit Clack router as `.unit` texts and sources.
pub fn router_inputs() -> (Vec<(String, String)>, SourceTree) {
    let generated = clack::clackgen::generate(&clack::ip_router(), ROUTER_ROOT, false)
        .expect("the canonical router graph is valid");
    let units = vec![
        (
            "elements.unit".to_string(),
            include_str!("../../crates/clack/corpus/elements.unit").to_string(),
        ),
        ("hand.unit".to_string(), include_str!("../../crates/clack/corpus/hand.unit").to_string()),
        ("generated.unit".to_string(), generated.unit_text.clone()),
    ];
    let mut tree = clack::sources();
    clack::clackgen::install(&generated, &mut tree);
    (units, tree)
}

/// A client's seeded op stream and the evolving sources it edits. Equal
/// `(seed, client)` give equal streams.
pub struct OpGen {
    rng: Rng,
    client: usize,
    seq: u64,
    burst: usize,
    synth_session: String,
    router_session: String,
    depth: usize,
    fanout: usize,
    synth_units: Vec<(String, String)>,
    synth_tree: SourceTree,
    router_units: Vec<(String, String)>,
    router_tree: SourceTree,
    router_base: BTreeMap<String, String>,
    /// Layer units (l ≥ 1) with an initializer, for schedule edits.
    init_units: Vec<(usize, usize)>,
    /// The set-up requests, fixed before any edit.
    setup: Vec<Request>,
    /// Kinds left in the current shuffled block.
    block: Vec<OpKind>,
}

impl OpGen {
    /// The stream for `client` under `seed`.
    pub fn new(seed: u64, client: usize, size: Size) -> OpGen {
        let (units, burst) = sizes(size);
        let params = SynthParams::sized(units, seed);
        let corpus = synth::generate(&params);
        let (router_units, router_tree) = router_inputs();
        let router_base = ROUTER_FILES
            .iter()
            .map(|f| (f.to_string(), router_tree.get(f).expect("router element file").to_string()))
            .collect();
        let mut init_units = Vec::new();
        for (file, text) in &corpus.units {
            if let Some((l, k)) = layer_of(file) {
                if l > 0 && text.contains("initializer") {
                    init_units.push((l, k));
                }
            }
        }
        let mut gen = OpGen {
            rng: Rng::new(seed ^ (0xC11E_0000 + client as u64).wrapping_mul(0x9E37_79B9)),
            client,
            seq: 0,
            burst,
            synth_session: format!("c{client}-synth"),
            router_session: format!("c{client}-router"),
            depth: params.depth,
            fanout: params.fanout,
            synth_units: corpus.units,
            synth_tree: corpus.tree,
            router_units,
            router_tree,
            router_base,
            init_units,
            setup: Vec::new(),
            block: Vec::new(),
        };
        gen.setup = gen.initial_requests();
        gen
    }

    /// Session options of the synth session.
    pub fn synth_options() -> SessionOptions {
        let mut o = SessionOptions::new("SynthSys");
        o.entry = Some("main".to_string());
        o
    }

    /// The requests that create this client's two sessions and cold-build
    /// them (as of before the first op).
    pub fn setup_requests(&self) -> &[Request] {
        &self.setup
    }

    fn initial_requests(&self) -> Vec<Request> {
        let mut reqs = Vec::new();
        let sessions = [
            (&self.synth_session, Self::synth_options(), &self.synth_units, &self.synth_tree),
            (
                &self.router_session,
                SessionOptions::new(ROUTER_ROOT),
                &self.router_units,
                &self.router_tree,
            ),
        ];
        for (session, options, units, tree) in sessions {
            reqs.push(Request::Open { session: session.clone(), options });
            for (file, text) in units {
                reqs.push(Request::LoadUnits {
                    session: session.clone(),
                    file: file.clone(),
                    text: text.clone(),
                });
            }
            for (path, text) in tree.iter() {
                reqs.push(Request::UpdateSource {
                    session: session.clone(),
                    path: path.to_string(),
                    text: text.to_string(),
                });
            }
            reqs.push(Request::Build { session: session.clone(), want_image: false });
        }
        reqs
    }

    /// A unique constant for this client's edit `seq`.
    fn stamp(&self) -> u64 {
        100 + self.seq * MAX_CLIENTS as u64 + self.client as u64
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        self.seq += 1;
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i + 1));
            }
        }
        let kind = self.block.pop().expect("block refilled");
        let requests = match kind {
            OpKind::Body => self.body_edit(),
            OpKind::Unit => self.unit_edit(),
            OpKind::Deploy => self.deploy_edit(),
        };
        let burst = if kind == OpKind::Deploy {
            packets::workload(&WorkloadOptions {
                count: self.burst,
                seed: self.rng.next_u64(),
                ..Default::default()
            })
        } else {
            Vec::new()
        };
        Op { seq: self.seq, kind, requests, burst }
    }

    fn body_edit(&mut self) -> Vec<Request> {
        let (l, k) = (self.rng.below(self.depth), self.rng.below(self.fanout));
        let path = SynthCorpus::c_file(l, k);
        let text = self.synth_tree.get(&path).expect("synth C file").to_string();
        let head = format!("int u{l}_{k}_f0() {{");
        let stamp = self.stamp();
        let edited: Vec<String> = text
            .lines()
            .map(|line| {
                if !line.starts_with(&head) {
                    return line.to_string();
                }
                // `... return X; }` or `... return f() + X; }`: swap X.
                let end = line.rfind("; }").expect("synth function shape");
                let start = line[..end].rfind(|c: char| !c.is_ascii_digit()).expect("constant") + 1;
                format!("{}{stamp}{}", &line[..start], &line[end..])
            })
            .collect();
        let text = edited.join("\n") + "\n";
        self.synth_tree.add(&path, &text);
        vec![
            Request::UpdateSource { session: self.synth_session.clone(), path, text },
            Request::Build { session: self.synth_session.clone(), want_image: false },
        ]
    }

    fn unit_edit(&mut self) -> Vec<Request> {
        let schedule_edit = !self.init_units.is_empty() && self.rng.below(2) == 1;
        let (l, k) = if schedule_edit {
            self.init_units[self.rng.below(self.init_units.len())]
        } else {
            (1 + self.rng.below(self.depth - 1), self.rng.below(self.fanout))
        };
        let file = SynthCorpus::unit_file(l, k);
        let line = if schedule_edit {
            format!("    depends {{ u{l}_{k}_init needs inp; }};\n")
        } else {
            "    constraints { grade(inp) <= grade(out); };\n".to_string()
        };
        let slot = self.synth_units.iter_mut().find(|(f, _)| *f == file).expect("synth unit file");
        slot.1 = if slot.1.contains(&line) {
            slot.1.replace(&line, "")
        } else {
            let at = slot.1.find("    files {").expect("unit has a files line");
            format!("{}{line}{}", &slot.1[..at], &slot.1[at..])
        };
        vec![
            Request::UpdateUnit { session: self.synth_session.clone(), file, text: slot.1.clone() },
            Request::Build { session: self.synth_session.clone(), want_image: false },
        ]
    }

    fn deploy_edit(&mut self) -> Vec<Request> {
        let file = ROUTER_FILES[self.rng.below(ROUTER_FILES.len())];
        let stem = file.trim_end_matches(".c");
        let text = format!(
            "{}\nint {stem}_deploy_stamp() {{ return {}; }}\n",
            self.router_base[file],
            self.stamp()
        );
        self.router_tree.add(file, &text);
        vec![
            Request::UpdateSource {
                session: self.router_session.clone(),
                path: file.to_string(),
                text,
            },
            Request::Build { session: self.router_session.clone(), want_image: true },
        ]
    }

    /// Cold-build both sessions' current sources with `knit::build`,
    /// returning `(synth image hash, router image hash)`.
    pub fn cold_hashes(&self) -> Result<(u64, u64), String> {
        let build = |units: &[(String, String)], tree: &SourceTree, o: SessionOptions| {
            let mut p = Program::new();
            p.load_many(units, 1).map_err(|e| format!("{e}"))?;
            let mut opts = BuildOptions::new(o.root, machine::runtime_symbols());
            opts.entry = o.entry;
            knit::build(&p, tree, &opts)
                .map(|r| proto::image_hash(&r.image))
                .map_err(|e| format!("{e}"))
        };
        Ok((
            build(&self.synth_units, &self.synth_tree, Self::synth_options())?,
            build(&self.router_units, &self.router_tree, SessionOptions::new(ROUTER_ROOT))?,
        ))
    }
}

/// `u{l}_{k}.unit` → `(l, k)`.
fn layer_of(file: &str) -> Option<(usize, usize)> {
    let rest = file.strip_prefix('u')?.strip_suffix(".unit")?;
    let (l, k) = rest.split_once('_')?;
    Some((l.parse().ok()?, k.parse().ok()?))
}

/// Frames collected per output port.
type Frames = Vec<Vec<Vec<u8>>>;

/// A running server, one connection per client, and each client's set-up
/// build outcomes.
type Live = (ServerHandle, Vec<Conn>, Vec<Vec<BuildOutcome>>);

/// Per replayed op: (handle ms over its requests, handle ms of its build,
/// the build's outcome).
type Replayed = Vec<(f64, f64, Built)>;

/// The parts of a `BuildOutcome` the report and the oracles use. A 1k-unit
/// session's full outcome lists every unit's compile and watched path, so
/// each op keeps only this, and peak RSS does not grow with the ops run.
#[derive(Debug, Clone, PartialEq)]
struct Built {
    image_hash: u64,
    instances: usize,
    units_compiled: usize,
    flatten_groups: usize,
    text_size: u64,
    phases: Vec<(String, u64)>,
}

impl From<&BuildOutcome> for Built {
    fn from(o: &BuildOutcome) -> Built {
        Built {
            image_hash: o.image_hash,
            instances: o.instances,
            units_compiled: o.units_compiled,
            flatten_groups: o.flatten_groups,
            text_size: o.text_size,
            phases: o.phases.clone(),
        }
    }
}

/// What a deploy leaves for the report. Its image and frames are checked
/// against the Reference tier as soon as the op's timing ends, and then
/// dropped, so the process's peak RSS does not grow with the ops run.
struct Deploy {
    counters: PerfCounters,
    load_ms: f64,
    exec_ms: f64,
    text_bytes: u64,
    /// The `Built` response, kept for a few deploys to time decoding.
    response: Option<Response>,
    /// Why the deploy failed its Reference-tier or image-hash check.
    mismatch: Option<String>,
}

/// One completed op.
struct OpRecord {
    seq: u64,
    kind: OpKind,
    traced: bool,
    latency_ms: f64,
    /// Client-side round trip per request.
    rpc_ms: Vec<f64>,
    built: Built,
    deploy: Option<Deploy>,
}

/// Run a deployed image: load, init, push the burst, drain the ports.
fn run_burst(
    image: Image,
    entry: &str,
    burst: &[WorkItem],
    mode: ExecMode,
) -> Result<(Machine, Frames, Duration, Duration), String> {
    let t = Instant::now();
    let mut m = Machine::new(image).map_err(|e| format!("load: {e}"))?;
    m.set_exec_mode(mode);
    let load = t.elapsed();
    let t = Instant::now();
    m.call("__knit_init", &[]).map_err(|e| format!("init: {e}"))?;
    for (dev, pkt) in burst {
        m.netdevs[*dev].inject(pkt.clone());
    }
    while m.call(entry, &[]).map_err(|e| format!("router_step: {e}"))? > 0 {}
    let exec = t.elapsed();
    let frames = (0..2)
        .map(|p| {
            let mut v = Vec::new();
            while let Some(f) = m.netdevs[p].collect() {
                v.push(f);
            }
            v
        })
        .collect();
    Ok((m, frames, load, exec))
}

fn call(conn: &mut Conn, req: &Request) -> Result<Response, String> {
    match conn.call(req) {
        Ok(Response::Error { diagnostics }) => Err(format!(
            "server error: {}",
            diagnostics.first().map(|d| d.human()).unwrap_or_default()
        )),
        Ok(r) => Ok(r),
        Err(e) => Err(format!("connection: {e}")),
    }
}

/// Execute one op over `conn`.
fn execute(
    conn: &mut Conn,
    op: &Op,
    op_id: u64,
    tid: u64,
    tracer: &Tracer,
    keep_response: bool,
) -> Result<OpRecord, String> {
    let root = tracer.scope(
        if op.kind == OpKind::Deploy { "op.deploy" } else { "op.edit" },
        op_id,
        None,
        tid,
    );
    let mut rpc_ms = Vec::new();
    let mut built = None;
    for req in &op.requests {
        let s = tracer.scope("server.rpc", op_id, root.id(), tid);
        let resp = call(conn, req)?;
        if let Response::Built { outcome, .. } = &resp {
            let parts: Vec<(String, Duration)> = outcome
                .phases
                .iter()
                .map(|(n, us)| (format!("phase.{n}"), Duration::from_micros(*us)))
                .collect();
            tracer.derived(s.id(), op_id, tid, s.start(), &parts);
        }
        rpc_ms.push(ms(s.end()));
        if let Response::Built { .. } = resp {
            built = Some(resp);
        }
    }
    let Some(Response::Built { outcome, image }) = built else {
        return Err("the op's build returned no outcome".to_string());
    };
    let mut deploy = None;
    if op.kind == OpKind::Deploy {
        let hex = image.as_deref().ok_or("deploy build shipped no image")?;
        let s = tracer.scope("proto.decode_image", op_id, root.id(), tid);
        let img = proto::decode_image(hex).map_err(|e| format!("decode: {e}"))?;
        s.end();
        let entry = outcome
            .exports
            .iter()
            .find(|(k, _)| k.ends_with(".router_step"))
            .map(|(_, v)| v.clone())
            .ok_or("router exports no router_step")?;
        let s = tracer.scope("machine.run", op_id, root.id(), tid);
        let (m, frames, load, exec) = run_burst(img, &entry, &op.burst, ExecMode::default())?;
        tracer.derived(
            s.id(),
            op_id,
            tid,
            s.start(),
            &[("machine.load".to_string(), load), ("machine.exec".to_string(), exec)],
        );
        s.end();
        deploy = Some((m, frames, entry, load, exec));
    }
    let latency = root.end();
    // The deploy's oracle, outside the op's timing: the decoded image
    // matches its hash, and the burst replays identically under Reference.
    let deploy = match deploy {
        None => None,
        Some((m, frames, entry, load, exec)) => {
            let mismatch = if proto::image_hash(m.image()) != outcome.image_hash {
                Some("decoded deploy image does not match its outcome hash".to_string())
            } else {
                match run_burst(m.image().clone(), &entry, &op.burst, ExecMode::Reference) {
                    Ok((r, f, _, _)) if f == frames && r.counters() == m.counters() => None,
                    Ok(_) => Some("deploy burst differs under the Reference tier".to_string()),
                    Err(e) => Some(format!("reference deploy: {e}")),
                }
            };
            Some(Deploy {
                counters: m.counters(),
                load_ms: ms(load),
                exec_ms: ms(exec),
                text_bytes: outcome.text_size,
                response: keep_response
                    .then(|| Response::Built { outcome: outcome.clone(), image: image.clone() }),
                mismatch,
            })
        }
    };
    Ok(OpRecord {
        seq: op.seq,
        kind: op.kind,
        traced: tracer.on(),
        latency_ms: ms(latency),
        rpc_ms,
        built: Built::from(&outcome),
        deploy,
    })
}

/// One client's window. The ops themselves are not kept: the replay
/// oracle regenerates them from the seed.
struct ClientRun {
    ops: Vec<OpRecord>,
    errors: Vec<String>,
}

/// Peak RSS once the clients have completed [`RSS_AFTER_OPS`] ops.
#[derive(Default)]
struct RssMark {
    ops: AtomicUsize,
    mb: OnceLock<f64>,
}

fn client_window(
    mut conn: Conn,
    gen: &mut OpGen,
    client: usize,
    window: Duration,
    traced: Option<&Tracer>,
    rss: &RssMark,
) -> ClientRun {
    let plain = Tracer::new(false);
    let mut run = ClientRun { ops: Vec::new(), errors: Vec::new() };
    let start = Instant::now();
    let mut kept = 0;
    while run.ops.len() + run.errors.len() == 0 || start.elapsed() < window {
        let op = gen.next_op();
        let tracer = match traced {
            Some(t) if op.seq % 2 == 1 => t,
            _ => &plain,
        };
        let keep = op.kind == OpKind::Deploy && kept < DECODE_SAMPLES;
        let op_id = client as u64 * 1_000_000 + op.seq;
        match execute(&mut conn, &op, op_id, client as u64, tracer, keep) {
            Ok(rec) => {
                kept += keep as usize;
                run.ops.push(rec);
                if rss.ops.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_OPS {
                    let _ = rss.mb.set(peak_rss_mb());
                }
            }
            Err(e) => {
                run.errors.push(format!("client {client} op {}: {e}", op.seq));
                break;
            }
        }
    }
    run
}

/// Bind a server on a Unix socket inside the working directory.
fn bind() -> Result<ServerHandle, String> {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let sock = dir.join(format!("serve-{}-{n}.sock", std::process::id()));
    let server = Server::bind(Engine::new(), &format!("unix:{}", sock.display()))
        .map_err(|e| format!("bind {}: {e}", sock.display()))?;
    Ok(server.spawn())
}

fn shutdown(handle: ServerHandle) -> Result<(), String> {
    let mut c = Conn::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let bye = c.call(&Request::Shutdown);
    drop(c);
    handle.join().map_err(|e| format!("server: {e}"))?;
    match bye {
        Ok(Response::Bye) => Ok(()),
        other => Err(format!("shutdown answered {other:?}")),
    }
}

/// Set up one server and every client's sessions; returns the server,
/// the connections, and each client's setup Built outcomes.
fn setup(gens: &[OpGen]) -> Result<Live, String> {
    let handle = bind()?;
    let addr = handle.addr().to_string();
    let results: Vec<Result<(Conn, Vec<BuildOutcome>), String>> = std::thread::scope(|s| {
        let workers: Vec<_> = gens
            .iter()
            .map(|g| {
                let addr = &addr;
                s.spawn(move || {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut built = Vec::new();
                    for req in g.setup_requests() {
                        if let Response::Built { outcome, .. } = call(&mut conn, req)? {
                            built.push(outcome);
                        }
                    }
                    Ok((conn, built))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("setup client panicked")).collect()
    });
    let mut conns = Vec::new();
    let mut built = Vec::new();
    for r in results {
        let (c, b) = r?;
        conns.push(c);
        built.push(b);
    }
    Ok((handle, conns, built))
}

/// One set-up: fresh generators, a server, and every client's sessions,
/// timed from binding the server to the last cold build.
fn setup_rep(cfg: &RunConfig, clients: usize) -> Result<(f64, Vec<OpGen>, Live), String> {
    let gens: Vec<OpGen> = (0..clients).map(|c| OpGen::new(cfg.seed, c, cfg.size)).collect();
    let t = Instant::now();
    let live = setup(&gens)?;
    Ok((t.elapsed().as_secs_f64(), gens, live))
}

/// Close a set-up's connections and shut its server down.
fn retire((handle, conns, _): Live) -> Result<(), String> {
    drop(conns);
    shutdown(handle)
}

/// Regenerate one client's op stream from the seed and replay its setup
/// and ops through an in-process `Engine`, returning per-op
/// `(Σ handle ms, build handle ms, built outcome)`.
fn replay(engine: &Engine, mut gen: OpGen, ops: &[OpRecord]) -> Result<Replayed, String> {
    for req in gen.setup_requests() {
        if let Response::Error { diagnostics } = engine.handle(req) {
            return Err(format!(
                "replay setup: {}",
                diagnostics.first().map(|d| d.human()).unwrap_or_default()
            ));
        }
    }
    let mut out = Vec::new();
    for rec in ops {
        let op = gen.next_op();
        if (op.seq, op.kind) != (rec.seq, rec.kind) {
            return Err(format!("the regenerated op stream diverges at op {}", rec.seq));
        }
        let mut total = 0.0;
        let mut last = (0.0, None);
        for req in &op.requests {
            let t = Instant::now();
            let resp = engine.handle(req);
            let d = ms(t.elapsed());
            total += d;
            match resp {
                Response::Built { outcome, .. } => last = (d, Some(Built::from(&outcome))),
                Response::Error { diagnostics } => {
                    return Err(format!(
                        "replay op {}: {}",
                        op.seq,
                        diagnostics.first().map(|d| d.human()).unwrap_or_default()
                    ))
                }
                _ => {}
            }
        }
        let outcome = last.1.ok_or_else(|| format!("replay op {} built nothing", op.seq))?;
        out.push((total, last.0, outcome));
    }
    Ok(out)
}

/// Run the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let n = clients();
    out.env("seed", cfg.seed);
    out.env("nproc", nproc());
    out.env("clients", n);
    out.env("jobs", knit::default_jobs());
    out.env("exec_tier", ExecMode::default().as_str());
    out.env("mix_block", BLOCK.iter().map(|k| k.name()).collect::<Vec<_>>().join(","));
    out.env("synth_units", sizes(cfg.size).0);
    out.env("burst_packets", sizes(cfg.size).1);

    // Set-up: fresh generators, a server and every client's sessions,
    // several times: half before the window, the last of which is the one
    // measured, and half after it, so the median samples the host at both
    // ends of the run (its speed drifts over seconds).
    let mut setups = Vec::new();
    let before = (|| {
        let mut live = None;
        for _ in 0..SETUP_REPS / 2 {
            if let Some((_, l)) = live.take() {
                retire(l)?;
            }
            let (secs, gens, l) = setup_rep(cfg, n)?;
            setups.push(secs);
            live = Some((gens, l));
        }
        Ok::<_, String>(live.expect("set-up ran"))
    })();
    let (mut gens, (handle, conns, setup_built)) = match before {
        Ok(live) => live,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };

    // The window: every client runs its closed loop.
    let traced = Tracer::new(true);
    let rss_mark = RssMark::default();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .zip(gens.iter_mut())
            .enumerate()
            .map(|(c, (conn, gen))| {
                let (tr, rss) = (cfg.trace.then_some(&traced), &rss_mark);
                s.spawn(move || client_window(conn, gen, c, cfg.window, tr, rss))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client panicked")).collect()
    });
    let rss = rss_mark.mb.get().copied().unwrap_or_else(peak_rss_mb);
    out.env(
        "rss_after_ops",
        rss_mark.mb.get().map_or(rss_mark.ops.into_inner(), |_| RSS_AFTER_OPS),
    );
    if let Err(e) = shutdown(handle) {
        out.fail(format!("shutdown: {e}"));
    }
    for _ in SETUP_REPS / 2..SETUP_REPS {
        match setup_rep(cfg, n).and_then(|(secs, _, l)| retire(l).map(|_| secs)) {
            Ok(secs) => setups.push(secs),
            Err(e) => out.fail(format!("set-up after the window: {e}")),
        }
    }
    out.env("samples.setup_s", setups.len());
    for r in &runs {
        out.attempted += (r.ops.len() + r.errors.len()) as u64;
        for e in &r.errors {
            out.fail(e.clone());
        }
    }

    // Oracle 1: replay every client's stream in-process (the clients in
    // parallel, sharing one engine as they shared the server).
    let engine = Engine::new();
    let replays: Vec<Result<Replayed, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(c, r)| {
                let engine = &engine;
                s.spawn(move || replay(engine, OpGen::new(cfg.seed, c, cfg.size), &r.ops))
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("replay panicked")).collect()
    });
    let mut handle_ms = Vec::new();
    let mut wire_ms = Vec::new();
    let mut other_ms = Vec::new();
    let mut build_ms_all = Vec::new();
    for (c, (rep, run)) in replays.iter().zip(&runs).enumerate() {
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("client {c}: {e}"));
                continue;
            }
        };
        for ((total, build_ms, outcome), rec) in rep.iter().zip(&run.ops) {
            if outcome.image_hash != rec.built.image_hash {
                out.fail(format!(
                    "client {c} op {}: served image differs from the in-process replay",
                    rec.seq
                ));
            }
            if rec.kind != OpKind::Deploy {
                handle_ms.push(*total);
                wire_ms.push(rec.rpc_ms.iter().sum::<f64>() - total);
                let phases: f64 = outcome.phases.iter().map(|(_, us)| *us as f64 / 1e3).sum();
                other_ms.push(build_ms - phases);
                build_ms_all.push(*build_ms);
            }
        }
    }

    // Oracle 2: each session's final state equals a cold build.
    for (c, (g, run)) in gens.iter().zip(&runs).enumerate() {
        let last = |want_router: bool| {
            run.ops
                .iter()
                .rev()
                .find(|r| (r.kind == OpKind::Deploy) == want_router)
                .map(|r| r.built.image_hash)
                .or_else(|| setup_built[c].get(want_router as usize).map(|o| o.image_hash))
        };
        match g.cold_hashes() {
            Ok((synth, router)) => {
                if Some(synth) != last(false) || Some(router) != last(true) {
                    out.fail(format!("client {c}: final served image differs from a cold build"));
                }
            }
            Err(e) => out.fail(format!("client {c}: cold build: {e}")),
        }
    }

    // Oracle 3: deploy bursts equal a Reference-tier run; each body edit
    // compiled exactly one unit.
    let records: Vec<&OpRecord> = runs.iter().flat_map(|r| &r.ops).collect();
    for rec in &records {
        if rec.kind == OpKind::Body && rec.built.units_compiled != 1 {
            out.fail(format!("a body edit compiled {} units, not 1", rec.built.units_compiled));
        }
        if let Some(why) = rec.deploy.as_ref().and_then(|d| d.mismatch.as_ref()) {
            out.fail(why.clone());
        }
    }

    let lat = |kinds: &[OpKind], traced: Option<bool>| {
        Samples(
            records
                .iter()
                .filter(|r| kinds.contains(&r.kind) && traced.is_none_or(|t| r.traced == t))
                .map(|r| r.latency_ms)
                .collect(),
        )
    };
    let all = [OpKind::Body, OpKind::Unit, OpKind::Deploy];
    let untraced = lat(&all, Some(false));
    let deploys: Vec<&Deploy> = records.iter().filter_map(|r| r.deploy.as_ref()).collect();
    let router_text = setup_built.first().and_then(|b| b.get(1)).map(|o| o.text_size).unwrap_or(0);
    let text = if deploys.is_empty() {
        router_text as f64
    } else {
        median(&deploys.iter().map(|d| d.text_bytes as f64).collect::<Vec<_>>())
    };
    let burst = sizes(cfg.size).1.max(1) as f64;
    let cycles =
        median(&deploys.iter().map(|d| d.counters.cycles as f64 / burst).collect::<Vec<_>>());

    // Closed-loop throughput: each client's ops per second of its op time
    // (its deploy checks run between ops), summed over the clients.
    let rate: f64 = runs
        .iter()
        .map(|r| {
            r.ops.len() as f64 / (r.ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3).max(1e-9)
        })
        .sum();
    out.e2e("setup_s", median(&setups));
    out.e2e("items_per_s", rate);
    out.e2e("peak_rss_mb", rss);
    out.e2e("text_bytes", text);

    out.named("op_p50_ms", untraced.median(), "ms");
    let edits = lat(&[OpKind::Body, OpKind::Unit], Some(false));
    out.named("edit_p50_ms", edits.median(), "ms");
    if let Some((p, v)) = edits.tail() {
        out.named(&format!("edit_p{p}_ms"), v, "ms");
        out.env(&format!("samples.edit_p{p}_ms"), edits.len());
    }
    out.named("body_edit_p50_ms", lat(&[OpKind::Body], Some(false)).median(), "ms");
    out.named("unit_edit_p50_ms", lat(&[OpKind::Unit], Some(false)).median(), "ms");
    let dep = lat(&[OpKind::Deploy], Some(false));
    out.named("deploy_p50_ms", dep.median(), "ms");
    if let Some((p, v)) = untraced.tail() {
        out.named(&format!("op_p{p}_ms"), v, "ms");
        out.env(&format!("samples.op_p{p}_ms"), untraced.len());
    }
    out.named("deploy_cycles_per_pkt", cycles, "cycles");
    out.named("fail_ratio", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
    for k in [OpKind::Body, OpKind::Unit, OpKind::Deploy] {
        out.env(&format!("ops.{}", k.name()), records.iter().filter(|r| r.kind == k).count());
    }
    // Where the clients' time goes, by op kind.
    for k in all {
        out.named(
            &format!("time_share_{}_pct", k.name()),
            lat(&[k], Some(false)).sum() / untraced.sum().max(1e-9) * 100.0,
            "%",
        );
    }
    out.env("samples.op_p50_ms", untraced.len());
    out.env("samples.edit_p50_ms", edits.len());
    out.env("samples.deploy_p50_ms", dep.len());

    if cfg.trace {
        let edit_builds: Vec<&Built> =
            records.iter().filter(|r| r.kind != OpKind::Deploy).map(|r| &r.built).collect();
        for (phase, metric) in PHASES {
            let v: Vec<f64> = edit_builds
                .iter()
                .map(|o| {
                    o.phases
                        .iter()
                        .find(|(n, _)| n == phase)
                        .map(|(_, us)| *us as f64 / 1e3)
                        .unwrap_or(0.0)
                })
                .collect();
            out.layer(metric, median(&v));
        }
        let col =
            |f: fn(&Built) -> f64| median(&edit_builds.iter().map(|o| f(o)).collect::<Vec<_>>());
        out.layer("elaborate.instances", col(|o| o.instances as f64));
        out.layer("compile.units_compiled", col(|o| o.units_compiled as f64));
        out.layer("flatten.groups", col(|o| o.flatten_groups as f64));
        out.layer(
            "session.units_compiled_per_edit",
            median(
                &records
                    .iter()
                    .filter(|r| r.kind == OpKind::Body)
                    .map(|r| r.built.units_compiled as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer("build.other_ms", median(&other_ms));
        out.layer("build.wall_ms", median(&build_ms_all));
        out.layer("server.handle_ms", median(&handle_ms));
        out.layer("wire.ms", median(&wire_ms));
        out.layer("load.ms", median(&deploys.iter().map(|d| d.load_ms).collect::<Vec<_>>()));
        let instrs: f64 = deploys.iter().map(|d| d.counters.instructions as f64).sum();
        let exec_s: f64 = deploys.iter().map(|d| d.exec_ms / 1e3).sum();
        let pkts = deploys.len() as f64 * burst;
        out.layer("exec.mips", instrs / exec_s.max(1e-9) / 1e6);
        out.layer("exec.instrs_per_pkt", instrs / pkts.max(1.0));
        out.layer("exec.cycles_per_pkt", cycles);
        let per_pkt = |f: fn(&PerfCounters) -> u64| {
            deploys.iter().map(|d| f(&d.counters) as f64).sum::<f64>() / pkts.max(1.0)
        };
        out.layer("icache.misses_per_pkt", per_pkt(|c| c.icache_misses));
        out.layer("icache.stalls_per_pkt", per_pkt(|c| c.ifetch_stall_cycles));
        // Decoding a deploy's wire line, timed apart from the round trip.
        let mut decode = Vec::new();
        let mut bytes = Vec::new();
        for resp in deploys.iter().filter_map(|d| d.response.as_ref()) {
            let line = resp.to_json();
            let t = Instant::now();
            let back = Response::from_json(&line);
            decode.push(ms(t.elapsed()));
            bytes.push(line.len() as f64);
            if back.as_ref() != Ok(resp) {
                out.fail("a deploy response does not survive a wire round trip");
            }
        }
        out.layer("proto.decode_ms", median(&decode));
        out.layer("proto.line_bytes", median(&bytes));
        let traced_p50 = lat(&all, Some(true)).median();
        if untraced.median() > 0.0 {
            out.layer("trace.overhead_pct", (traced_p50 / untraced.median() - 1.0) * 100.0);
        }
        let spans = traced.spans();
        out.self_times = trace::self_time_by_layer(&spans);
        out.spans = spans;
    }
    out
}
