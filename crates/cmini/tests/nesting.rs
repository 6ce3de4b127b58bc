//! The parser's nesting bound ([`cmini::parser::MAX_NESTING`]): hostile
//! nesting is a parse error, never a stack overflow, and the deepest
//! source the parser accepts also compiles through the back end — all on
//! a 2 MiB thread, the default size of a spawned thread.

use cmini::{backend, frontend_expanded, CError, CompileOptions, OptLevel};

const STACK: usize = 2 << 20;

/// Run `f` on a thread with a 2 MiB stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new().stack_size(STACK).spawn(f).expect("spawn").join().expect("no crash")
}

/// `int f() { ... }` with one construct nested `depth` times.
fn source(shape: &str, depth: usize) -> String {
    let body = match shape {
        "parens" => format!("return {}1{};", "(".repeat(depth), ")".repeat(depth)),
        "prefix" => format!("return {}1;", "~".repeat(depth)),
        "chain" => format!("return 1{};", "+1".repeat(depth)),
        "ternary" => format!("return {}3;", "1 ? 2 : ".repeat(depth)),
        "blocks" => format!("{}return 1;{}", "{".repeat(depth), "}".repeat(depth)),
        "ifs" => format!("{}return 1; return 0;", "if (1) ".repeat(depth)),
        other => unreachable!("unknown shape {other}"),
    };
    format!("int f() {{ {body} }}\n")
}

const SHAPES: [&str; 6] = ["parens", "prefix", "chain", "ternary", "blocks", "ifs"];

#[test]
fn deepest_accepted_nesting_compiles_on_a_small_stack() {
    on_small_stack(|| {
        let mut opts = CompileOptions::default();
        opts.opt = OptLevel::O2;
        for shape in SHAPES {
            let deepest = (1..=2 * cmini::parser::MAX_NESTING)
                .take_while(|&d| frontend_expanded("n.c", &source(shape, d)).is_ok())
                .last()
                .expect("shallow nesting parses");
            assert!(deepest < 2 * cmini::parser::MAX_NESTING, "{shape}: no bound");
            let tu = frontend_expanded("n.c", &source(shape, deepest)).expect("accepted");
            backend(tu, &opts).unwrap_or_else(|e| panic!("{shape} at depth {deepest}: {e}"));
            let err = frontend_expanded("n.c", &source(shape, deepest + 1)).expect_err("too deep");
            assert!(matches!(err, CError::Parse { .. }), "{shape}: {err}");
        }
    });
}

#[test]
fn hostile_nesting_is_a_parse_error() {
    on_small_stack(|| {
        for shape in SHAPES {
            for depth in [1_000, 100_000] {
                let err = frontend_expanded("n.c", &source(shape, depth)).expect_err("too deep");
                assert!(err.to_string().contains("nesting deeper than"), "{shape}/{depth}: {err}");
            }
        }
    });
}
