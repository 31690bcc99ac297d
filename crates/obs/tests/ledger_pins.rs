//! Byte pins for the run ledger's writer.
//!
//! A fixed event sequence goes straight through `TraceSink::record` into a
//! file-backed `LedgerSink` (so every `ts_us` is fixed, not clock-driven),
//! and the file's word-wise FNV-1a digest is compared with a constant
//! recorded before the sink's formatter was rewritten. The sequence covers
//! every `FieldValue` variant, empty field lists, every character the JSON
//! escaper treats specially, non-ASCII text, integer extremes, and the
//! float cases whose printing is easy to get wrong (shortest round-trip,
//! signed zero, subnormals, huge exponents, NaN and the infinities). A
//! writer change that moves the constant changed a byte some reader of the
//! journal sees.

use pmkm_obs::{Event, FieldValue, LedgerSink, TraceSink};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over little-endian 8-byte words (the last one zero-padded), with
/// the byte length folded in last so padding cannot alias.
fn fnv_words(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

const NAMES: &[&str] = &[
    "chunk.close",
    "lloyd.iteration",
    "",
    "quote\"name",
    "back\\slash",
    "line\nfeed",
    "cr\rand\ttab",
    "ctl\u{1}and\u{1f}",
    "ünïcödé.€",
    "clef.\u{1d11e}",
];

const KEYS: &[&str] = &[
    "cell",
    "points",
    "",
    "k\"q",
    "k\\b",
    "k\nn",
    "k\r\t",
    "\u{0}\u{1}\u{1f}\u{7f}",
    "größe",
    "日本",
];

const STRS: &[&str] = &[
    "",
    "plain",
    "\"",
    "\\",
    "\n\r\t",
    "\u{1}",
    "\u{1f}",
    "\u{0}\u{8}\u{c}\u{b}",
    "héllo wörld",
    "日本語テキスト",
    "rocket \u{1f680}",
    "</script>&amp;",
    "/slash/",
];

const U64S: &[u64] = &[0, 1, 42, 999_999, 1 << 53, (1 << 53) + 1, u64::MAX - 1, u64::MAX];

const I64S: &[i64] = &[i64::MIN, i64::MIN + 1, -1, 0, 1, -42, i64::MAX];

const F64S: &[f64] = &[
    0.1,
    -0.0,
    0.0,
    5e-324,
    1e300,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -2.5,
    1e-7,
    123_456_789.0,
    1e16,
    1e21,
    f64::MAX,
    f64::MIN_POSITIVE,
    1.0 / 3.0,
    -1e-300,
    2.225073858507201e-308,
];

fn value(variant: usize, pick: usize) -> FieldValue {
    match variant % 5 {
        0 => FieldValue::U64(U64S[pick % U64S.len()]),
        1 => FieldValue::I64(I64S[pick % I64S.len()]),
        2 => FieldValue::F64(F64S[pick % F64S.len()]),
        3 => FieldValue::Bool(pick % 2 == 1),
        _ => FieldValue::Str(STRS[pick % STRS.len()].to_string()),
    }
}

/// The pinned sequence: every table entry once as a single field, then
/// ~1,000 mixed events whose field counts cycle through 0..=6.
fn events() -> Vec<Event> {
    let mut out = Vec::new();
    let mut ts = 0u64;
    let mut push = |name: &str, fields: Vec<(String, FieldValue)>| {
        ts += 17;
        out.push(Event { ts_us: ts, name: name.to_string(), fields });
    };
    for &v in U64S {
        push("u64", vec![("v".into(), FieldValue::U64(v))]);
    }
    for &v in I64S {
        push("i64", vec![("v".into(), FieldValue::I64(v))]);
    }
    for &v in F64S {
        push("f64", vec![("v".into(), FieldValue::F64(v))]);
    }
    for &s in STRS {
        push("str", vec![(s.to_string(), FieldValue::Str(s.to_string()))]);
    }
    for &name in NAMES {
        push(name, Vec::new());
    }
    for &key in KEYS {
        push("key", vec![(key.to_string(), FieldValue::Bool(true))]);
    }
    for i in 0..1_000usize {
        let fields = (0..i % 7)
            .map(|j| (KEYS[(i + j) % KEYS.len()].to_string(), value(i * 7 + j, i + 3 * j)))
            .collect();
        push(NAMES[i % NAMES.len()], fields);
    }
    out.push(Event { ts_us: u64::MAX, name: "run.close".into(), fields: Vec::new() });
    out
}

#[test]
fn ledger_bytes_are_pinned() {
    let path = std::env::temp_dir().join(format!("pmkm_ledger_pins_{}.jsonl", std::process::id()));
    {
        let sink = LedgerSink::create(&path).expect("create ledger");
        for event in &events() {
            sink.record(event);
        }
        sink.flush();
    }
    let bytes = std::fs::read(&path).expect("read ledger");
    std::fs::remove_file(&path).ok();
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(lines, 1 + events().len(), "header plus one line per event");
    assert_eq!(bytes.len(), LEDGER_BYTES, "ledger length moved");
    assert_eq!(fnv_words(&bytes), LEDGER_DIGEST, "ledger bytes moved: {:#018x}", fnv_words(&bytes));
}

// Recorded on 940225b, whose sink cloned each event into a `LedgerRecord`
// and printed it through `serde_json::to_string` (this file dropped into an
// export of that tree unmodified).
const LEDGER_BYTES: usize = 148_982;
const LEDGER_DIGEST: u64 = 0x7ea6_9986_c41d_64ac;
