//! Incremental-build correctness and precision tests for
//! [`knit::BuildSession`] (DESIGN.md §3): a session rebuild must always
//! produce the byte-identical image a cold build of the same inputs
//! would, and — the precision half — each kind of edit must rerun
//! *exactly* the phases whose inputs changed, counted by
//! [`knit::SessionStats`].

use proptest::prelude::*;

use knit_repro::clack::{ip_router, router_build_inputs};
use knit_repro::knit::{build, BuildOptions, BuildSession, KnitError, SessionStats};
use knit_repro::machine;

// ---------------------------------------------------------------------------
// fixture: a three-unit program with an initializer, a dependency, and
// constraints, so every pipeline phase has real work to memoize
// ---------------------------------------------------------------------------

/// The `.unit` source, parameterized the way the edit tests (and the
/// random-edit proptest) mutate it: `strict` toggles App's constraint
/// annotation, `comment` appends a comment-only line (which must change
/// no fingerprint at all).
fn unit_src(strict: bool, comment: bool) -> String {
    let ctx = if strict { "ProcessContext" } else { "NoContext" };
    let mut s = format!(
        r#"
property context
type NoContext
type ProcessContext < NoContext
bundletype Main = {{ main }}
bundletype Val = {{ value }}
unit Value = {{
    exports [ v : Val ];
    files {{ "value.c" }};
    initializer value_init for v;
    constraints {{ context(v) = NoContext; }};
}}
unit App = {{
    imports [ v : Val ];
    exports [ m : Main ];
    depends {{ exports needs imports; }};
    files {{ "app.c" }};
    constraints {{ context(m) = {ctx}; context(m) <= context(v); }};
}}
unit Top = {{
    exports [ m : Main ];
    link {{
        val : Value;
        app : App [ v = val.v ];
        m = app.m;
    }};
}}
"#
    );
    if comment {
        s.push_str("// comment-only edit: no fingerprint may change\n");
    }
    s
}

fn value_c(ret: i64) -> String {
    format!("static int base;\nvoid value_init() {{\n    base = {ret};\n}}\nint value() {{\n    return base;\n}}\n")
}

fn app_c(boost: i64) -> String {
    format!("int value();\nint main() {{\n    return value() + {boost};\n}}\n")
}

fn session() -> BuildSession {
    let mut s = BuildSession::new(
        BuildOptions::root("Top").runtime_symbols(machine::runtime_symbols()).jobs(1).build(),
    );
    s.load_units("inc.unit", &unit_src(false, false)).expect("fixture parses");
    s.update_source("value.c", &value_c(40));
    s.update_source("app.c", &app_c(2));
    s
}

fn run_to_exit(image: knit_repro::cobj::Image) -> i64 {
    let mut m = machine::Machine::new(image).expect("machine");
    m.run_entry().expect("runs")
}

/// Phase `runs` deltas between two stats snapshots, for precision asserts.
fn run_deltas(before: &SessionStats, after: &SessionStats) -> [(String, usize); 8] {
    let d = |n: &str, b: knit_repro::knit::PhaseCount, a: knit_repro::knit::PhaseCount| {
        (n.to_string(), a.runs - b.runs)
    };
    [
        d("elaborate", before.elaborate, after.elaborate),
        d("constraints", before.constraints, after.constraints),
        d("schedule", before.schedule, after.schedule),
        d("unit_compiles", before.unit_compiles, after.unit_compiles),
        d("objcopy", before.objcopy, after.objcopy),
        d("flatten", before.flatten, after.flatten),
        d("generate", before.generate, after.generate),
        d("link", before.link, after.link),
    ]
}

fn assert_deltas(got: &[(String, usize)], want: &[(&str, usize)]) {
    for (name, runs) in got {
        let expect = want.iter().find(|(n, _)| n == name).map(|(_, r)| *r).unwrap_or(0);
        assert_eq!(*runs, expect, "phase `{name}` reran {runs} times, expected {expect}");
    }
}

// ---------------------------------------------------------------------------
// precision: exactly the invalidated phases rerun
// ---------------------------------------------------------------------------

/// An unchanged session rebuild runs nothing at all — not even a phase
/// fingerprint recomputation is visible in the stats.
#[test]
fn unchanged_rebuild_is_fully_memoized() {
    let mut s = session();
    let cold = s.build().expect("cold build");
    assert_eq!(run_to_exit(cold.image.clone()), 42);

    let before = s.stats().clone();
    let again = s.build().expect("no-op rebuild");
    assert_eq!(s.stats().full_reuse_builds, 1, "second build must take the fast path");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);
    assert_eq!(again.stats.units_compiled, 0);
    assert_eq!(again.image, cold.image, "fast path must return the same image");
}

/// Editing one C body reruns exactly that unit's compile, its instances'
/// objcopy, and the final link — elaboration, constraints, the schedule,
/// and the boot object are all reused.
#[test]
fn c_body_edit_recompiles_one_unit_and_relinks() {
    let mut s = session();
    s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_source("value.c", &value_c(41));
    let report = s.build().expect("incremental build");
    assert_deltas(
        &run_deltas(&before, s.stats()),
        &[("unit_compiles", 1), ("objcopy", 1), ("link", 1)],
    );
    assert_eq!(report.stats.units_compiled, 1, "only Value recompiles");
    assert_eq!(run_to_exit(report.image), 43, "the edit is visible in the program");
}

/// A comment-only edit to the `.unit` file reruns nothing: fingerprints
/// are span-free.
#[test]
fn comment_only_unit_edit_reruns_nothing() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_unit("inc.unit", &unit_src(false, true)).expect("reparse");
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);
    assert_eq!(report.stats.units_compiled, 0);
    assert_eq!(report.image, cold.image);
}

/// Renaming a link instance is an interface-level edit: elaboration (and
/// everything downstream of the instance names — symbol maps, objcopy,
/// the boot object, the link) rerun, but no unit is recompiled.
#[test]
fn interface_edit_reelaborates_without_recompiling() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    let renamed = unit_src(false, false)
        .replace("val : Value", "core : Value")
        .replace("app : App [ v = val.v ]", "app : App [ v = core.v ]");
    s.update_unit("inc.unit", &renamed).expect("reparse");
    let report = s.build().expect("rebuild");
    let deltas = run_deltas(&before, s.stats());
    let get = |n: &str| deltas.iter().find(|(m, _)| m == n).unwrap().1;
    assert_eq!(get("elaborate"), 1, "instance names are elaboration inputs");
    assert_eq!(get("unit_compiles"), 0, "unit bodies are untouched — no recompiles");
    assert_eq!(report.stats.units_compiled, 0);
    assert_eq!(run_to_exit(report.image.clone()), 42);
    // mangled symbols are keyed by instance *index*, so the rename leaves
    // the image untouched — and a cold build of the same inputs agrees
    let cold2 = build(s.program(), s.tree(), s.options()).expect("cold rebuild");
    assert_eq!(report.image, cold2.image);
    assert_eq!(report.image, cold.image);
}

/// Editing only a `constraints { … }` clause reruns the constraint check
/// and nothing else — the image is untouched.
#[test]
fn constraint_edit_reruns_only_the_checker() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    s.update_unit("inc.unit", &unit_src(true, false)).expect("reparse");
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("constraints", 1)]);
    assert_eq!(report.image, cold.image, "constraints don't shape the image");
}

/// Changing the entry option reruns boot-object generation and the link;
/// compiles and elaboration are reused.
#[test]
fn entry_option_change_reruns_generate_and_link() {
    let mut s = session();
    let cold = s.build().expect("cold build");

    let before = s.stats().clone();
    let opts = BuildOptions::root("Top")
        .runtime_symbols(machine::runtime_symbols())
        .jobs(1)
        .entry("main")
        .build();
    s.set_options(opts);
    let report = s.build().expect("rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("generate", 1), ("link", 1)]);
    // `entry main` resolves to the same symbol the default picks
    assert_eq!(report.image, cold.image);
}

/// Changing only the worker count is not a semantic edit: the session
/// answers from the fast path.
#[test]
fn jobs_change_hits_the_fast_path() {
    let mut s = session();
    s.build().expect("cold build");

    let mut opts = s.options().clone();
    opts.jobs = 3;
    s.set_options(opts);
    let report = s.build().expect("rebuild");
    assert_eq!(s.stats().full_reuse_builds, 1, "jobs is not a build input");
    assert_eq!(report.jobs, 3, "but the report reflects the new setting");
}

/// Swapping a layout profile in (or out) invalidates exactly the link
/// phase: the objects are unchanged, only function placement moves. The
/// same profile again is a full-reuse no-op, and dropping the profile
/// restores the historical input-order image byte for byte.
#[test]
fn profile_swap_relinks_and_nothing_else() {
    let mut s = session();
    let cold = s.build().expect("cold build");
    assert_eq!(run_to_exit(cold.image.clone()), 42);

    // collect a real profile by running the built image instrumented
    let mut m = machine::Machine::new(cold.image.clone()).expect("machine");
    m.set_profiling(true);
    m.run_entry().expect("runs");
    let profile = std::sync::Arc::new(m.profile().layout_profile());

    let before = s.stats().clone();
    s.set_profile(Some(profile.clone()));
    let laid = s.build().expect("pgo rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("link", 1)]);
    assert_eq!(run_to_exit(laid.image.clone()), 42, "layout is a semantic permutation");

    // the same profile again is not a change at all
    let before = s.stats().clone();
    s.set_profile(Some(profile));
    s.build().expect("same-profile rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[]);

    // dropping the profile relinks back to the historical placement
    let before = s.stats().clone();
    s.set_profile(None);
    let back = s.build().expect("unprofiled rebuild");
    assert_deltas(&run_deltas(&before, s.stats()), &[("link", 1)]);
    assert_eq!(back.image, cold.image, "no profile must restore input-order placement");
}

// ---------------------------------------------------------------------------
// diagnostics: session build errors blame the offending `.unit` line
// ---------------------------------------------------------------------------

/// A build rejected mid-pipeline surfaces a [`knit::Diagnostic`] whose
/// span points at the `.unit` declaration at fault (here: `Wrap` on
/// line 3 needs a `rename`).
#[test]
fn session_error_diagnostics_blame_the_unit_line() {
    let mut s = BuildSession::new(
        BuildOptions::root("Sys").runtime_symbols(machine::runtime_symbols()).build(),
    );
    s.load_units(
        "inc.unit",
        r#"
bundletype T = { f }
unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; }
unit Base = { exports [ o : T ]; files { "b.c" }; }
unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
"#,
    )
    .expect("parses");
    s.update_source("w.c", "int f() { return 1; }");
    s.update_source("b.c", "int f() { return 2; }");
    let err = s.build().expect_err("Wrap exports and imports the same C name");
    assert!(matches!(err.root(), KnitError::NeedsRename { .. }), "got {err}");
    let diags = err.diagnostics();
    let span = diags[0].span.as_ref().expect("diagnostic carries a span");
    assert_eq!(span.0, "inc.unit");
    assert_eq!(span.1, 3, "span must blame unit Wrap's declaration line");
    // a failed build must not poison the session: fixing the unit builds
    let fixed = r#"
bundletype T = { f }
unit Wrap = { imports [ i : T ]; exports [ o : T ]; files { "w.c" }; rename { i.f to inner_f; }; }
unit Base = { exports [ o : T ]; files { "b.c" }; }
unit Sys = { exports [ o : T ]; link { b : Base; w : Wrap [ i = b.o ]; o = w.o; }; }
"#;
    s.update_unit("inc.unit", fixed).expect("reparse");
    s.update_source("w.c", "int inner_f();\nint f() { return inner_f(); }");
    s.build().expect("fixed program builds");
}

// ---------------------------------------------------------------------------
// equivalence: any session state builds the image a cold build would
// ---------------------------------------------------------------------------

/// The full Clack router through a session: one `.c` edit recompiles
/// exactly one of its ~25 units, and the image matches a cold build of
/// the edited tree.
#[test]
fn clack_router_incremental_edit_is_minimal_and_exact() {
    let (p, t, opts) = router_build_inputs(&ip_router(), false).expect("router inputs");
    let mut s = BuildSession::from_parts(p, t, opts);
    let cold = s.build().expect("cold build");
    assert!(cold.stats.units_compiled > 10, "the router is a real program");

    let edited =
        format!("{}\nstatic int incr_poke;\n", s.tree().get("counter.c").expect("counter.c"));
    s.update_source("counter.c", &edited);
    let incr = s.build().expect("incremental build");
    assert_eq!(incr.stats.units_compiled, 1, "only Counter recompiles");
    assert_eq!(incr.stats.units_reused, cold.stats.units_compiled - 1);

    let cold2 = build(s.program(), s.tree(), s.options()).expect("cold build of edited tree");
    assert_eq!(incr.image, cold2.image, "incremental image must equal a cold build");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Apply a random sequence of edits (C bodies, comment-only `.unit`
    /// tweaks, constraint changes) to one session; after every single
    /// edit the session image must be byte-identical to a cold build of
    /// the session's current program/tree/options.
    #[test]
    fn random_edit_sequences_match_cold_builds(edits in prop::collection::vec(0usize..5, 1..6)) {
        let mut s = session();
        s.build().expect("cold build");
        let (mut strict, mut comment) = (false, false);
        for (i, e) in edits.into_iter().enumerate() {
            match e {
                0 => s.update_source("value.c", &value_c(40 + i as i64)),
                1 => s.update_source("app.c", &app_c(2 + i as i64)),
                2 => { comment = !comment; s.update_unit("inc.unit", &unit_src(strict, comment)).expect("reparse"); }
                3 => { strict = !strict; s.update_unit("inc.unit", &unit_src(strict, comment)).expect("reparse"); }
                _ => s.update_source("value.c", &value_c(40)),
            }
            let incr = s.build().expect("incremental build");
            let cold = build(s.program(), s.tree(), s.options()).expect("cold build");
            prop_assert_eq!(&incr.image, &cold.image, "divergence after edit #{}", i);
            prop_assert_eq!(run_to_exit(incr.image), run_to_exit(cold.image));
        }
    }
}

// ---------------------------------------------------------------------------
// transactional `.unit` redefinition
// ---------------------------------------------------------------------------

/// A bundle type in a file of its own, and a unit in another file that
/// renames one of its members. `Renamer` is registered but not part of
/// `Top`'s build, so only validation ever reads it.
const EXT_TYPES: &str = "bundletype Ext = { ext_a, ext_b }\n";
const EXT_USER: &str = r#"
unit Renamer = {
    imports [ e : Ext ];
    exports [ m : Main ];
    files { "renamer.c" };
    rename { e.ext_b to my_b; };
}
"#;

fn session_with_ext() -> BuildSession {
    let mut s = session();
    s.load_units("types.unit", EXT_TYPES).expect("types parse");
    s.load_units("renamer.unit", EXT_USER).expect("renamer parses");
    s
}

/// Every declaration of the program, for before/after comparisons.
fn program_dump(s: &BuildSession) -> String {
    format!("{:?}", s.program())
}

/// The image hash of a cold build of the session's current program.
fn cold_hash(s: &BuildSession) -> u64 {
    let report = build(s.program(), s.tree(), s.options()).expect("cold build");
    knit_repro::knit::proto::image_hash(&report.image)
}

fn rendered(err: &KnitError) -> Vec<String> {
    err.diagnostics().iter().map(|d| d.human()).collect()
}

/// A rejected `update_unit` leaves the program exactly as it was: the
/// next build gives the same image hash, and the rejection's diagnostics
/// are pinned. Covers a unit naming an unknown bundle type and a bundle
/// type redefinition that breaks another file's unit's `rename`.
#[test]
fn rejected_update_unit_leaves_the_program_unchanged() {
    use knit_repro::knit::proto::image_hash;
    let mut s = session_with_ext();
    let cold = image_hash(&s.build().expect("cold build").image);
    let before = program_dump(&s);

    // 1. The unit names a bundle type nobody declared.
    let unknown = unit_src(false, false).replace("imports [ v : Val ]", "imports [ v : Nope ]");
    let err = s.update_unit("inc.unit", &unknown).expect_err("unknown bundletype");
    assert_eq!(
        rendered(&err),
        ["error[K0003]: unknown bundletype `Nope` (in unit `App` port `v`)"],
        "unknown-bundletype diagnostics drifted"
    );
    assert_eq!(program_dump(&s), before, "a rejected update must not change the program");
    assert_eq!(cold_hash(&s), cold);
    assert_eq!(image_hash(&s.build().expect("still builds").image), cold);

    // 2. Dropping `ext_b` from `Ext` breaks `Renamer`'s rename, declared
    //    in another file: the whole update is rejected.
    let err = s.update_unit("types.unit", "bundletype Ext = { ext_a }\n").expect_err("bad rename");
    assert_eq!(
        rendered(&err),
        ["error[K0008]: unit `Renamer`: rename of `e.ext_b` matches no port member"],
        "broken-rename diagnostics drifted"
    );
    assert_eq!(program_dump(&s), before, "a rejected update must not change the program");
    assert_eq!(cold_hash(&s), cold);
    assert_eq!(image_hash(&s.build().expect("still builds").image), cold);

    // 3. A file that redefines a good declaration before a bad one is
    //    rejected as a whole: the good half does not land either.
    let mixed = format!("bundletype Ext = {{ ext_a, ext_b, ext_c }}\n{}", unknown);
    s.update_unit("inc.unit", &mixed).expect_err("second declaration is bad");
    assert_eq!(program_dump(&s), before, "a rejected update must not change the program");
    assert_eq!(cold_hash(&s), cold);
    assert_eq!(image_hash(&s.build().expect("still builds").image), cold);
}

/// An accepted bundle type change re-validates the units that use it:
/// widening `Ext` is accepted, a unit registered afterwards may rename
/// the new member, and narrowing `Ext` again is then rejected because of
/// that later unit.
#[test]
fn accepted_bundletype_change_revalidates_its_users() {
    let mut s = session_with_ext();
    s.build().expect("cold build");
    s.update_unit("types.unit", "bundletype Ext = { ext_a, ext_b, ext_c }\n")
        .expect("widening keeps every rename valid");
    assert_eq!(
        s.program().members_of("Ext").expect("declared"),
        ["ext_a", "ext_b", "ext_c"].map(String::from)
    );
    s.load_units(
        "late.unit",
        r#"unit Late = { imports [ e : Ext ]; exports [ m : Main ]; files { "late.c" }; rename { e.ext_c to my_c; }; }"#,
    )
    .expect("renames the new member");
    let err = s
        .update_unit("types.unit", "bundletype Ext = { ext_a, ext_b }\n")
        .expect_err("`Late` renames ext_c");
    assert_eq!(
        rendered(&err),
        ["error[K0008]: unit `Late`: rename of `e.ext_c` matches no port member"],
    );
    assert_eq!(s.program().members_of("Ext").expect("declared").len(), 3);
    // The session still builds after the rejection.
    s.build().expect("builds");
}
