//! String scanning: runs of multibyte UTF-8 next to escapes and quotes,
//! error positions inside such runs, a round trip over random strings, and
//! a size check that catches a parser that is not linear in its input.

use std::time::{Duration, Instant};

use mm_json::{parse, Json, ParseError};
use proptest::prelude::*;

#[test]
fn multibyte_runs_meet_escapes_and_quotes() {
    let cases: &[(&str, &str)] = &[
        // 2-, 3- and 4-byte runs right before the closing quote.
        (r#""é""#, "é"),
        (r#""€""#, "€"),
        (r#""😀""#, "😀"),
        (r#""aé€😀""#, "aé€😀"),
        // Runs on both sides of simple escapes.
        (r#""é\n€""#, "é\n€"),
        (r#""😀\"😀""#, "😀\"😀"),
        (r#""€\\""#, "€\\"),
        (r#""\\é""#, "\\é"),
        (r#""\t😀\t""#, "\t😀\t"),
        // Runs next to `\u` escapes, surrogate pairs included.
        (r#""é\u00e9é""#, "ééé"),
        (r#""\u20ac€""#, "€€"),
        (r#""😀\ud83d\ude00""#, "😀😀"),
        (r#""\ud83d\ude00😀""#, "😀😀"),
        (r#""é\ud83d\ude00€""#, "é😀€"),
        (r#""\u0000€\u001f""#, "\u{0}€\u{1f}"),
        // Escapes only, and the empty string.
        (r#""\"\\\/\b\f\n\r\t""#, "\"\\/\u{8}\u{c}\n\r\t"),
        (r#""""#, ""),
    ];
    for &(text, want) in cases {
        assert_eq!(parse(text), Ok(Json::str(want)), "{text}");
    }
    // The same runs as object keys and array items.
    let doc = parse(r#"{"é€😀": ["😀", "aé", "€"], "😀": "é"}"#).unwrap();
    assert_eq!(
        doc,
        Json::obj([
            (
                "é€😀",
                Json::Arr(vec![Json::str("😀"), Json::str("aé"), Json::str("€")])
            ),
            ("😀", Json::str("é")),
        ])
    );
}

#[test]
fn unterminated_string_inside_a_multibyte_run() {
    let input = "{\n  \"k\": \"aé€😀";
    let err = parse(input).unwrap_err();
    assert_eq!(
        err,
        ParseError {
            offset: input.len(),
            message: "unterminated string".into(),
        }
    );
    // Columns count bytes: `  "k": "` is 8, then 1 + 2 + 3 + 4.
    assert_eq!(err.line_col(input), (2, 19));
    // Cut right after a multibyte character that follows an escape.
    let input = r#"["\n😀"#;
    let err = parse(input).unwrap_err();
    assert_eq!(
        (err.offset, err.message.as_str()),
        (input.len(), "unterminated string")
    );
    assert_eq!(err.locate(input), "line 1, column 9");
}

#[test]
fn escape_errors_keep_their_position_after_a_run() {
    let input = r#""é€\x""#;
    let err = parse(input).unwrap_err();
    assert_eq!(err.message, "invalid escape sequence");
    assert_eq!(err.offset, 7);
    let input = r#""😀\u12g4""#;
    let err = parse(input).unwrap_err();
    assert_eq!(err.message, "expected 4 hex digits");
    assert_eq!(err.offset, 9);
    // A high surrogate without its low half.
    let input = r#""é\ud83dé""#;
    let err = parse(input).unwrap_err();
    assert_eq!(err.message, "invalid \\u escape");
    assert_eq!(err.offset, 9);
}

/// One character drawn from a mix of ASCII, control characters, JSON
/// metacharacters and 2-, 3- and 4-byte scalars.
fn char_from(x: u32) -> char {
    const PALETTE: &[char] = &[
        '"',
        '\\',
        '/',
        'é',
        'ß',
        '€',
        '中',
        '\u{FFFF}',
        '😀',
        '\u{10FFFF}',
        '\u{7f}',
        '\u{80}',
    ];
    match x % 4 {
        0 => PALETTE[(x / 4) as usize % PALETTE.len()],
        1 => char::from_u32((x / 4) % 0x20).expect("control characters are scalars"),
        2 => char::from_u32(0x20 + (x / 4) % 0x5f).expect("printable ASCII"),
        _ => char::from_u32((x / 4) % 0x11_0000).unwrap_or('\u{FFFD}'),
    }
}

proptest! {
    #[test]
    fn strings_round_trip(xs in proptest::collection::vec(any::<u32>(), 0..48)) {
        let s: String = xs.iter().map(|&x| char_from(x)).collect();
        let doc = Json::obj([
            (s.clone(), Json::Arr(vec![Json::str(s.clone()), Json::Int(1)])),
            ("k".to_string(), Json::str(s)),
        ]);
        prop_assert_eq!(parse(&doc.to_compact()).unwrap(), doc.clone());
        prop_assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }
}

#[test]
fn megabyte_of_strings_parses_in_linear_time() {
    let item = "plain ascii, é and € and 😀, \"quoted\" \\ tab\t and \u{1} ";
    let items: Vec<Json> = (0..16_000)
        .map(|i| Json::str(format!("{i}: {item}")))
        .collect();
    let text = Json::obj([("items", Json::Arr(items.clone()))]).to_compact();
    assert!(text.len() >= 1 << 20, "{} bytes", text.len());
    let start = Instant::now();
    let parsed = parse(&text).unwrap();
    let took = start.elapsed();
    assert_eq!(parsed.get("items").and_then(Json::as_arr), Some(&items[..]));
    // Linear parsing takes well under a second even in a debug build; one
    // that re-reads the rest of the input per character takes minutes.
    assert!(took < Duration::from_secs(20), "parse took {took:?}");
}
