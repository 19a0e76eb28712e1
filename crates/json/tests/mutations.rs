//! Hostile input: seeded mutations of valid documents — truncation,
//! byte flips, inserted bytes and deep nesting — must each parse to a
//! value or a `JsonError`, never panic or overflow the stack. A document
//! that parses must also write back to text that parses to the same
//! text again.

use beatnik_json::{parse, to_string, Value};
use beatnik_prng::Rng;

const SEEDS: u64 = 2_000;

/// Valid documents covering every production of the grammar.
const DOCS: &[&str] = &[
    r#"{"name":"job","deck":"multimode","order":"low","mesh_n":16,"steps":4,"ranks":2,
        "faults":"kill:r1@step3","dt":0.001,"profile":false,"deadline_ms":null}"#,
    r#"[1, -2, 3.5e-3, 18446744073709551615, -9223372036854775808, 0.1, 1E+2]"#,
    r#""esc \" \\ \/ \b \f \n \r \t A é 😀 é😀""#,
    r#"{"a": {"b": [[], {}, [null, true, false]], "c": ""}, "d": [{"e": [1, [2, [3]]]}]}"#,
    "  \t\r\n  [ ]  ",
];

/// One mutation of `doc`, chosen and shaped by `rng`.
fn mutate(rng: &mut Rng, doc: &[u8]) -> Vec<u8> {
    let mut out = doc.to_vec();
    match rng.gen_index(0..5) {
        0 => out.truncate(rng.gen_index(0..out.len() + 1)),
        1 => {
            for _ in 0..1 + rng.gen_index(0..4) {
                let at = rng.gen_index(0..out.len());
                out[at] ^= 1 << rng.gen_index(0..8);
            }
        }
        2 => {
            let at = rng.gen_index(0..out.len() + 1);
            const BYTES: &[u8] = b"[]{}\",:\\0-.eE\x00u";
            let extra: Vec<u8> = (0..1 + rng.gen_index(0..6))
                .map(|_| BYTES[rng.gen_index(0..BYTES.len())])
                .collect();
            out.splice(at..at, extra);
        }
        3 => {
            // Deep nesting around the document, closed or not.
            let depth = rng.gen_index(1..2_000);
            let open = if rng.gen_bool() { b"[" } else { b"{" as &[u8] };
            let mut deep = open.repeat(depth);
            deep.extend_from_slice(&out);
            if rng.gen_bool() {
                deep.extend(b"]".repeat(depth));
            }
            out = deep;
        }
        _ => {
            // A slice of the document from a random offset.
            let from = rng.gen_index(0..out.len());
            out.drain(..from);
        }
    }
    out
}

#[test]
fn seeded_mutations_parse_or_error_and_never_panic() {
    let (mut ok, mut refused) = (0, 0);
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from_u64(seed);
        let doc = DOCS[rng.gen_index(0..DOCS.len())];
        let bytes = mutate(&mut rng, doc.as_bytes());
        let text = String::from_utf8_lossy(&bytes);
        match parse(&text) {
            Ok(v) => {
                ok += 1;
                let once = to_string(&v);
                let again: Value = parse(&once)
                    .unwrap_or_else(|e| panic!("seed {seed}: {once:?} does not reparse: {e}"));
                assert_eq!(to_string(&again), once, "seed {seed}");
            }
            Err(_) => refused += 1,
        }
    }
    assert!(ok > 100 && refused > 100, "{ok} parsed, {refused} refused");
}

#[test]
fn every_valid_document_parses() {
    for doc in DOCS {
        parse(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
    }
}
