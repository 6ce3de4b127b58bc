//! Identity and incrementality pins for the scaled composition engine.
//!
//! The interner/worklist/template work (DESIGN.md §13) is only admissible
//! if it is invisible: these tests pin byte-level golden image hashes and
//! diagnostics on the pre-existing corpora, new-vs-legacy differential
//! dumps, `--jobs` determinism (as proptests), and the one-edit
//! incremental law on a 10k-unit [`knit::BuildSession`] via exact
//! [`knit::SessionStats`] counts.

use bench::legacy;
use bench::synth::{generate, SynthCorpus, SynthParams, PACK_DEPTH};
use knit::proto::image_hash;
use knit::{BuildOptions, BuildSession};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// golden identity on the pre-existing corpora
// ---------------------------------------------------------------------------

/// `(root, image hash, schedule length)` captured on the pre-interner
/// engine. Any drift means the scaling work changed observable output.
const GOLDEN_KERNELS: &[(&str, u64, usize)] = &[
    ("HelloKernel", 0x1981bda0f7b12d17, 0),
    ("HelloSerialKernel", 0xce7afa023047bd4f, 0),
    ("FsKernel", 0x6999f09bf3012eeb, 2),
    ("RedirectKernel", 0xed1297360fe45164, 0),
    ("IrqKernelGood", 0x37c8246065e12178, 0),
    ("LockKernel", 0x30d90b3244730370, 0),
    ("LockKernelSpin", 0xdcbf23a4be4fd390, 0),
    ("NetEchoKernel", 0x8290da58cc6bd8b6, 0),
    ("UptimeKernel", 0x1f7ecfcde4c40920, 0),
    ("ChainKernel", 0x93b0a61cd96ca335, 0),
    ("ChainKernelFlat", 0x89d852eb451842cc, 0),
];

#[test]
fn oskit_images_byte_identical_to_pre_interner_engine() {
    assert_eq!(GOLDEN_KERNELS.len(), oskit::GOOD_KERNELS.len(), "golden table covers every kernel");
    for &(root, hash, sched_len) in GOLDEN_KERNELS {
        assert!(oskit::GOOD_KERNELS.contains(&root), "{root} is a known kernel");
        let r = oskit::build_kernel(root).expect("good kernel builds");
        assert_eq!(image_hash(&r.image), hash, "{root}: image drifted");
        assert_eq!(r.schedule.len(), sched_len, "{root}: schedule drifted");
    }
}

#[test]
fn clack_images_byte_identical_to_pre_interner_engine() {
    for (flatten, hash) in [(false, 0xf51a1bee14d00a92u64), (true, 0xb076a43278c4462d)] {
        let r = clack::build_clack_router(&clack::ip_router(), flatten).expect("router builds");
        assert_eq!(image_hash(&r.image), hash, "clack flatten={flatten}: image drifted");
    }
}

/// Structured diagnostics must also survive byte-for-byte: the constraint
/// solver's lazily-materialized provenance chains have to render exactly
/// the strings the eager pre-worklist solver produced.
#[test]
fn diagnostics_byte_identical_to_pre_interner_engine() {
    let err = oskit::build_kernel(oskit::KERNEL_IRQ_BAD).unwrap_err();
    let diags: Vec<String> = err.diagnostics().iter().map(|d| d.json()).collect();
    assert_eq!(
        diags,
        vec!["{\"code\":\"K0011\",\"severity\":\"error\",\"message\":\"constraint violation on \
             property `context`\",\"span\":{\"file\":\"components.unit\",\"line\":108,\"col\":9},\
             \"notes\":[\"blame: requires at least `NoContext` (unit `IrqDispatch` at \
             `IrqKernelBad/d`: context(irq) = NoContext (via unit `IrqDispatch` at \
             `IrqKernelBad/d`: context(irq) <= context(handler)) (via unit `IrqHandlerSpin` at \
             `IrqKernelBad/h`: context(exports) <= context(imports))) but at most \
             `ProcessContext` (unit `BlockingMutex` at `IrqKernelBad/lock`: context(lock) = \
             ProcessContext)\"]}"
            .to_string()]
    );

    let mut p = knit::Program::new();
    p.load_str(
        "x.unit",
        r#"
        bundletype IO = { get }
        unit A = {
            imports [ inp : IO ];
            exports [ out : IO ];
            files { "a.c" };
        }
        unit Root = {
            exports [ out : IO ];
            link {
                a : A [];
                out = a.out;
            };
        }
        "#,
    )
    .unwrap();
    let t = knit::SourceTree::new();
    let err = knit::build(&p, &t, &BuildOptions::new("Root", Vec::<String>::new())).unwrap_err();
    let diags: Vec<String> = err.diagnostics().iter().map(|d| d.json()).collect();
    assert_eq!(
        diags,
        vec!["{\"code\":\"K0004\",\"severity\":\"error\",\"message\":\"instance `Root/a`: import \
             `inp` is not wired to anything\",\"span\":{\"file\":\"x.unit\",\"line\":11,\
             \"col\":17},\"notes\":[]}"
            .to_string()]
    );
}

// ---------------------------------------------------------------------------
// new vs legacy differential (beyond what table_scale runs)
// ---------------------------------------------------------------------------

fn assert_engines_agree(program: &knit::Program, root: &str) {
    let el = knit::elaborate::elaborate(program, root).expect("new engine elaborates");
    let lel = legacy::elaborate(program, root).expect("legacy engine elaborates");
    assert_eq!(
        legacy::dump_new_elaboration(&el),
        legacy::dump_elaboration(&lel),
        "{root}: elaborations diverged"
    );
    let s = knit::sched::schedule(program, &el).expect("new engine schedules");
    let ls = legacy::schedule(program, &lel).expect("legacy engine schedules");
    assert_eq!(
        legacy::dump_new_schedule(&s),
        legacy::dump_schedule(&ls),
        "{root}: schedules diverged"
    );
}

#[test]
fn oskit_kernels_match_legacy_engine() {
    let program = oskit::program();
    for root in oskit::GOOD_KERNELS {
        assert_engines_agree(&program, root);
    }
}

#[test]
fn clack_router_matches_legacy_engine() {
    for flatten in [false, true] {
        let (program, _, opts) =
            clack::router_build_inputs(&clack::ip_router(), flatten).expect("router generates");
        assert_engines_agree(&program, &opts.root);
    }
}

#[test]
fn synthetic_corpus_matches_legacy_engine() {
    let corpus = generate(&SynthParams::sized(300, 0xFEED));
    let program = corpus.load_program(1).expect("corpus parses");
    assert_engines_agree(&program, &corpus.root);
}

// ---------------------------------------------------------------------------
// determinism proptests: seeds and --jobs
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The generator is a pure function of its parameters: the same seed
    /// yields byte-identical `.unit` and `.c` sources.
    #[test]
    fn same_seed_same_corpus(seed in any::<u64>()) {
        let a = generate(&SynthParams::sized(80, seed));
        let b = generate(&SynthParams::sized(80, seed));
        prop_assert_eq!(&a.units, &b.units);
        for (path, text) in a.tree.iter() {
            prop_assert_eq!(b.tree.get(path), Some(text));
        }
        // adjacent seeds must not collide (scrambled stream)
        let c = generate(&SynthParams::sized(80, seed.wrapping_add(1)));
        prop_assert_ne!(&a.units, &c.units);
    }

    /// Parallel parsing merges in deterministic order: elaboration is
    /// byte-identical for every `--jobs`.
    #[test]
    fn elaboration_identical_for_every_jobs(seed in any::<u64>()) {
        let corpus = generate(&SynthParams::sized(90, seed));
        let base = legacy::dump_new_elaboration(
            &knit::elaborate::elaborate(
                &corpus.load_program(1).expect("parses"), &corpus.root,
            ).expect("elaborates"),
        );
        for jobs in [2usize, 4, 8] {
            let program = corpus.load_program(jobs).expect("parses");
            let el = knit::elaborate::elaborate(&program, &corpus.root).expect("elaborates");
            prop_assert_eq!(&legacy::dump_new_elaboration(&el), &base, "jobs={}", jobs);
        }
    }
}

#[test]
fn images_identical_for_every_jobs() {
    let corpus = generate(&SynthParams::sized(60, 0xBEEF));
    let mut hashes = Vec::new();
    for jobs in [1usize, 4] {
        let program = corpus.load_program(jobs).expect("parses");
        let mut opts = BuildOptions::new(&corpus.root, Vec::<String>::new());
        opts.jobs = jobs;
        let report = knit::build(&program, &corpus.tree, &opts).expect("builds");
        hashes.push(image_hash(&report.image));
    }
    assert_eq!(hashes[0], hashes[1], "image depends on --jobs");
}

// ---------------------------------------------------------------------------
// the 10k-unit incremental session law
// ---------------------------------------------------------------------------

/// One edit in a 10k-unit session must rerun exactly the phases that can
/// observe it — everything else is answered from the session memo. Each
/// step pins the *exact* [`knit::SessionStats`] deltas.
#[test]
fn one_edit_in_a_10k_unit_session_is_incremental() {
    let params = SynthParams::sized(10_000, 0xC0FFEE);
    let corpus = generate(&params);
    let program = corpus.load_program(knit::default_jobs()).expect("corpus parses");
    let opts = BuildOptions::new(&corpus.root, Vec::<String>::new());
    let mut session = BuildSession::from_parts(program, corpus.tree.clone(), opts);

    // Cold build: every phase runs once.
    let report = session.build().expect("cold build");
    assert_eq!(report.elaboration.instances.len(), corpus.expected_instances);
    // The 625 Pack replicas elaborate once: the first builds the template,
    // the rest are stamped — the "clean subgraph" the session never
    // revisits, pinned exactly.
    assert_eq!(report.elaboration.stats.template_copies, params.replicas - 1);
    assert_eq!(report.elaboration.stats.instances_stamped, (params.replicas - 1) * PACK_DEPTH);
    let cold = session.stats().clone();
    assert_eq!(cold.elaborate.runs, 1);
    assert_eq!(cold.constraints.runs, 1);
    assert_eq!(cold.schedule.runs, 1);
    assert!(cold.unit_compiles.runs > 0);
    let compiles = cold.unit_compiles.runs;

    // 1. Body edit: touch one layer unit's C file. Exactly one recompile;
    //    elaborate/constraints/schedule are all reused.
    let path = SynthCorpus::c_file(1, 0);
    let body = session.tree().get(&path).expect("layer source exists").to_string();
    session.update_source(&path, &format!("{body}\n/* tweak */\n"));
    session.build().expect("incremental rebuild");
    let s = session.stats().clone();
    assert_eq!(s.elaborate.runs, 1, "body edit must not re-elaborate");
    assert_eq!(s.elaborate.reuses, cold.elaborate.reuses + 1);
    assert_eq!(s.constraints.runs, 1);
    assert_eq!(s.schedule.runs, 1);
    assert_eq!(s.unit_compiles.runs, compiles + 1, "one edit, one recompile");
    assert_eq!(s.unit_compiles.reuses, cold.unit_compiles.reuses + compiles - 1);

    // 2. Comment-only `.unit` edit: fingerprints are span-free, so
    //    re-registering the file reruns nothing at all.
    let ufile = SynthCorpus::unit_file(1, 0);
    let decl = corpus
        .units
        .iter()
        .find(|(f, _)| *f == ufile)
        .map(|(_, text)| text.clone())
        .expect("layer unit file exists");
    session.update_unit(&ufile, &format!("// cosmetic\n{decl}")).expect("re-registers");
    session.build().expect("no-op rebuild");
    let s2 = session.stats().clone();
    assert_eq!(s2.elaborate.runs, 1, "comment edit must not re-elaborate");
    assert_eq!(s2.unit_compiles.runs, compiles + 1, "comment edit must not recompile");

    // 3. Schedule-only `.unit` edit: dropping a `depends` clause reruns
    //    the initializer schedule but reuses the elaboration and the
    //    constraint check (phase fingerprints see disjoint inputs).
    let without_dep = decl.replace("    depends { exports needs imports; };\n", "");
    assert_ne!(without_dep, decl, "layer unit carries the depends clause");
    session.update_unit(&ufile, &without_dep).expect("re-registers");
    session.build().expect("schedule-only rebuild");
    let s3 = session.stats().clone();
    assert_eq!(s3.elaborate.runs, 1, "depends edit must not re-elaborate");
    assert_eq!(s3.constraints.runs, 1, "depends edit must not re-check");
    assert_eq!(s3.schedule.runs, 2, "depends edit rebuilds the schedule");

    // 4. Interface edit: restoring the clause plus re-registering the
    //    original text flips the schedule fingerprint back; then an
    //    interface-level change (toggling `flatten` on one group) does
    //    force re-elaboration — which again stamps all replicas instead
    //    of rebuilding their subtrees.
    session.update_unit(&ufile, &decl).expect("restores");
    let flat0 = corpus
        .units
        .iter()
        .find(|(f, _)| f == "flat0.unit")
        .map(|(_, text)| text.clone())
        .expect("flatten group exists");
    let unflattened = flat0.replace("    flatten;\n", "");
    assert_ne!(unflattened, flat0, "group 0 carries the flatten marker");
    session.update_unit("flat0.unit", &unflattened).expect("re-registers");
    let report = session.build().expect("interface rebuild");
    let s4 = session.stats().clone();
    assert_eq!(s4.elaborate.runs, 2, "interface edit re-elaborates");
    assert_eq!(report.elaboration.stats.template_copies, params.replicas - 1);
    assert_eq!(report.elaboration.stats.instances_stamped, (params.replicas - 1) * PACK_DEPTH);
}

// ---------------------------------------------------------------------------
// back-end golden pins: synth images, schedules and lint counts by value
// ---------------------------------------------------------------------------

/// FNV-1a over length-prefixed strings: a compact, order-sensitive pin.
fn fnv_strs<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in parts {
        let p = p.as_ref();
        for b in (p.len() as u64).to_le_bytes().iter().chain(p.as_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// `(units, image hash, schedule hash, lint hash, lint warnings, lint
/// errors)` for the synth corpus at seed 12648430, built the way the
/// repository benchmark builds it (runtime symbols, entry `main`). The
/// schedule hash covers the initializer order and then the finalizer
/// order, as `path.func`; the lint hash covers every diagnostic as
/// rendered (code, severity, message, span and notes), in report order.
const GOLDEN_SYNTH: &[(usize, u64, u64, u64, usize, usize)] = &[
    (1_000, 0xa2eb_fe27_196b_d947, 0xde68_cf1d_a0b5_1bed, 0x0b00_3942_98cf_afc5, 476, 0),
    (10_000, 0x901e_c7df_b260_8067, 0x20ea_6cc1_55d9_2713, 0xae5b_0a99_eb1e_5441, 4436, 0),
];

#[test]
fn synth_corpus_images_schedules_and_lints_pinned_by_value() {
    for &(n, image, sched, lint_hash, warnings, errors) in GOLDEN_SYNTH {
        let corpus = generate(&SynthParams::sized(n, 12648430));
        let program = corpus.load_program(1).expect("corpus parses");
        let mut opts = BuildOptions::new(&corpus.root, machine::runtime_symbols());
        opts.entry = Some("main".to_string());
        let report = knit::build(&program, &corpus.tree, &opts).expect("corpus builds");
        let el = &report.elaboration;
        let schedule = knit::sched::schedule(&program, el).expect("schedules");
        assert_eq!(report.schedule, schedule.describe(el), "{n}: report schedule");
        let finis = schedule.finis.iter().map(|(i, f)| format!("{}.{f}", el.instances[*i].path));
        let sched_hash =
            fnv_strs(report.schedule.iter().cloned().chain(["--".to_string()]).chain(finis));
        let lint =
            knit::lint(&program, &corpus.tree, &opts, &knit::LintConfig::new()).expect("lints");
        let rendered = fnv_strs(lint.diagnostics.iter().map(|d| d.human()));
        assert_eq!(
            (image_hash(&report.image), sched_hash, rendered, lint.warnings(), lint.errors()),
            (image, sched, lint_hash, warnings, errors),
            "{n}-unit synth corpus drifted"
        );
    }
}

fn init_cycle(src: &str, root: &str) -> Vec<String> {
    let mut p = knit::Program::new();
    p.load_str("cycle.unit", src).expect("parses");
    let opts = BuildOptions::new(root, Vec::<String>::new());
    match knit::build(&p, &knit::SourceTree::new(), &opts) {
        Err(knit::KnitError::InitCycle { cycle }) => cycle,
        other => panic!("expected an init cycle, got {:?}", other.map(|r| r.schedule)),
    }
}

/// Two initializers that each need the other's export directly.
#[test]
fn init_cycle_path_direct() {
    let cycle = init_cycle(
        r#"
        bundletype A = { fa }
        bundletype B = { fb }
        unit UA = {
            imports [ b : B ];
            exports [ a : A ];
            initializer ia for a;
            depends { ia needs b; };
            files { "a.c" };
        }
        unit UB = {
            imports [ a : A ];
            exports [ b : B ];
            initializer ib for b;
            depends { ib needs a; };
            files { "b.c" };
        }
        unit Sys = {
            exports [ out : A ];
            link {
                ub : UB [ a = ua.a ];
                ua : UA [ b = ub.b ];
                out = ua.a;
            };
        }
        "#,
        "Sys",
    );
    assert_eq!(cycle, ["Sys/ub.ib", "Sys/ua.ia", "Sys/ub.ib"]);
}

/// A cycle closed through export-level `needs` chains of units that have
/// no initializer of their own.
#[test]
fn init_cycle_path_through_export_level_needs() {
    let cycle = init_cycle(
        r#"
        bundletype P = { pf }
        bundletype Q = { qf }
        unit A = {
            imports [ c : P ];
            exports [ a : Q ];
            initializer ia for a;
            depends { ia needs c; };
            files { "a.c" };
        }
        unit M = {
            imports [ up : P ];
            exports [ m : P ];
            depends { m needs up; };
            files { "m.c" };
        }
        unit C = {
            imports [ a : Q ];
            exports [ c : P ];
            initializer ic for c;
            initializer ic2 for c;
            depends { ic2 needs a; };
            files { "c.c" };
        }
        unit Sys = {
            exports [ out : Q ];
            link {
                x : A [ c = mid2.m ];
                mid1 : M [ up = z.c ];
                mid2 : M [ up = mid1.m ];
                z : C [ a = x.a ];
                out = x.a;
            };
        }
        "#,
        "Sys",
    );
    assert_eq!(cycle, ["Sys/x.ia", "Sys/z.ic2", "Sys/x.ia"]);
}

/// A ring of three replicas of one compound: the cycle crosses every
/// stamped copy.
#[test]
fn init_cycle_path_across_replicated_instances() {
    let cycle = init_cycle(
        r#"
        bundletype P = { pf }
        unit Stage = {
            imports [ inp : P ];
            exports [ out : P ];
            initializer st_init for out;
            depends { st_init needs inp; };
            files { "s.c" };
        }
        unit Rep = {
            imports [ feed : P ];
            exports [ out : P ];
            link {
                s : Stage [ inp = feed ];
                out = s.out;
            };
        }
        unit Ring = {
            exports [ out : P ];
            link {
                r1 : Rep [ feed = r0.out ];
                r0 : Rep [ feed = r2.out ];
                r2 : Rep [ feed = r1.out ];
                out = r0.out;
            };
        }
        "#,
        "Ring",
    );
    assert_eq!(
        cycle,
        ["Ring/r1/s.st_init", "Ring/r0/s.st_init", "Ring/r2/s.st_init", "Ring/r1/s.st_init"]
    );
}

// ---------------------------------------------------------------------------
// per-edit work on the 1k-unit synth session, counted exactly
// ---------------------------------------------------------------------------

/// Exact [`knit::SessionStats`] deltas for the two edits a served 1k-unit
/// session sees most: a C body edit redoes exactly the edited unit's link
/// table, its instances' objcopy fingerprints and renames, and one link
/// that reuses the previous symbol resolution; a `constraints` line edit
/// reruns the checker and nothing behind it.
#[test]
fn served_edits_on_the_1k_synth_session_do_edit_proportional_work() {
    let corpus = generate(&SynthParams::sized(1_000, 12648430));
    let program = corpus.load_program(1).expect("corpus parses");
    let mut opts = BuildOptions::new(&corpus.root, machine::runtime_symbols());
    opts.entry = Some("main".to_string());
    opts.jobs = 1;
    let mut session = BuildSession::from_parts(program, corpus.tree.clone(), opts.clone());
    let cold = session.build().expect("cold build");
    let el = &cold.elaboration;
    let (l, k) = (1, 0);
    let unit = format!("U{l}_{k}");
    let flattened: std::collections::BTreeSet<usize> =
        el.flatten_groups.iter().flatten().copied().collect();
    let instances: Vec<usize> = el
        .by_unit
        .iter()
        .find(|(name, _)| name.as_str() == unit)
        .map(|(_, ids)| ids.clone())
        .expect("the edited unit is instantiated");
    assert!(instances.iter().all(|id| !flattened.contains(id)), "edit a copied unit");
    let units = el.by_unit.len();
    let before = session.stats().clone();

    // 1. Body edit: swap one constant, as the served benchmark does.
    let path = SynthCorpus::c_file(l, k);
    let text = session.tree().get(&path).expect("layer source").to_string();
    let head = format!("int u{l}_{k}_f0() {{");
    let edited: String = text
        .lines()
        .map(|line| match line.starts_with(&head) {
            true => line.replacen("; }", " + 1; }", 1),
            false => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    assert_ne!(edited, text.trim_end(), "the edit changes the source");
    session.update_source(&path, &edited);
    let report = session.build().expect("body edit rebuilds");
    let s = session.stats().clone();
    let d = |f: fn(&knit::SessionStats) -> knit::PhaseCount| {
        let (a, b) = (f(&before), f(&s));
        (b.runs - a.runs, b.reuses - a.reuses)
    };
    assert_eq!(d(|s| s.elaborate), (0, 1));
    assert_eq!(d(|s| s.constraints), (0, 1));
    assert_eq!(d(|s| s.schedule), (0, 1));
    assert_eq!(d(|s| s.unit_compiles), (1, units - 1));
    assert_eq!(d(|s| s.unit_links), (1, units - 1));
    let copied = el.instances.len() - flattened.len();
    assert_eq!(d(|s| s.objcopy_fingerprints), (instances.len(), copied - instances.len()));
    assert_eq!(d(|s| s.objcopy), (instances.len(), copied - instances.len()));
    assert_eq!(d(|s| s.link), (1, 0));
    assert_eq!(d(|s| s.link_resolution), (0, 1), "a body edit reuses the resolution");
    let mut tree = corpus.tree.clone();
    tree.add(&path, &edited);
    let program = corpus.load_program(1).expect("corpus parses");
    let fresh = knit::build(&program, &tree, &opts).expect("cold build of the edit");
    assert_eq!(image_hash(&report.image), image_hash(&fresh.image), "same image as a cold build");

    // 2. `constraints` line edit: the checker reruns, nothing else does.
    let before = s;
    let file = SynthCorpus::unit_file(l, k);
    let decl = corpus.units.iter().find(|(f, _)| *f == file).map(|(_, t)| t.clone()).unwrap();
    let line = "    constraints { grade(inp) <= grade(out); };\n";
    let toggled = match decl.contains(line) {
        true => decl.replace(line, ""),
        false => decl.replacen("    files {", &format!("{line}    files {{"), 1),
    };
    session.update_unit(&file, &toggled).expect("re-registers");
    session.build().expect("constraint edit rebuilds");
    let s = session.stats().clone();
    let d = |f: fn(&knit::SessionStats) -> knit::PhaseCount| f(&s).runs - f(&before).runs;
    assert_eq!(d(|s| s.constraints), 1, "the checker reruns");
    for (name, runs) in [
        ("elaborate", d(|s| s.elaborate)),
        ("schedule", d(|s| s.schedule)),
        ("unit_compiles", d(|s| s.unit_compiles)),
        ("unit_links", d(|s| s.unit_links)),
        ("objcopy_fingerprints", d(|s| s.objcopy_fingerprints)),
        ("objcopy", d(|s| s.objcopy)),
        ("generate", d(|s| s.generate)),
        ("link", d(|s| s.link)),
        ("link_resolution", d(|s| s.link_resolution)),
    ] {
        assert_eq!(runs, 0, "a constraints edit must not rerun {name}");
    }
}
