//! The wire decoder on multi-MiB lines: exact round trips through every
//! string form the JSON grammar allows, in time linear in the line length.

use std::time::{Duration, Instant};

use knit::proto::Request;

/// A chunk of source text and the same text as a JSON string body written
/// with escapes: `\uXXXX` for BMP scalars, surrogate pairs for astral ones,
/// short escapes, and raw multi-byte UTF-8.
fn chunk(i: usize) -> (String, String) {
    let plain = format!("int f{i}() {{ return {i}; }} /* é 漢字 😀 \"q\" \\ */\n\t");
    let escaped = format!(
        "int f{i}() {{ return {i}; }} /* \\u00e9 \\u6f22\\u5b57 \\ud83d\\ude00 \\\"q\\\" \\\\ */\\n\\t"
    );
    (plain, escaped)
}

#[test]
fn multi_mib_update_source_round_trips_exactly() {
    let (mut text, mut body) = (String::new(), String::new());
    let mut i = 0;
    while body.len() < 3 << 20 {
        let (p, e) = chunk(i);
        // mix raw and escaped forms of the same text
        if i % 3 == 0 {
            body.push_str(
                &p.replace('\\', "\\\\")
                    .replace('"', "\\\"")
                    .replace('\n', "\\n")
                    .replace('\t', "\\t"),
            );
        } else {
            body.push_str(&e);
        }
        text.push_str(&p);
        i += 1;
    }
    let line = format!(r#"{{"req":"update_source","session":"s","path":"big.c","text":"{body}"}}"#);
    assert!(line.len() > 3 << 20);

    // A quadratic decoder takes minutes on a line this long; a linear one
    // takes milliseconds. The bound only catches the former.
    let start = Instant::now();
    let decoded = Request::from_json(&line).expect("decodes");
    assert!(start.elapsed() < Duration::from_secs(20), "decode took {:?}", start.elapsed());
    let want = Request::UpdateSource { session: "s".into(), path: "big.c".into(), text };
    assert_eq!(decoded, want);

    // The writer's own encoding of the same request decodes back exactly.
    let reencoded = want.to_json();
    assert_eq!(Request::from_json(&reencoded).expect("decodes"), want);
}

#[test]
fn truncated_and_malformed_strings_are_errors() {
    for bad in [
        r#"{"req":"update_source","session":"s","path":"p","text":"abc"#,
        r#"{"req":"update_source","session":"s","path":"p","text":"\ud83d"}"#,
        r#"{"req":"update_source","session":"s","path":"p","text":"\u12"}"#,
        r#"{"req":"update_source","session":"s","path":"p","text":"\q"}"#,
    ] {
        assert!(Request::from_json(bad).is_err(), "{bad}");
    }
}
