//! Property test: `protocol::parse_request` answers every input — random
//! bytes, or a valid request truncated, bit-flipped or spliced with junk
//! — with `Ok` or a typed `Err(String)`, and never panics.

use proptest::prelude::*;

use clara_serve::protocol::parse_request;

/// One valid request per op, every optional field present somewhere.
const VALID: [&str; 8] = [
    r#"{"v":1,"id":7,"op":"predict","nf":"cmsketch","packets":80,"seed":3,"small_flows":true,"backend":"agilio-cx","precision":"q16"}"#,
    r#"{"v":1,"op":"analyze","nf":"firewall","precision":"f64"}"#,
    r#"{"v":1,"id":2,"op":"place","nfs":["cmsketch","firewall"],"packets":64,"seed":9}"#,
    r#"{"v":1,"op":"difftest","seeds":3,"start":1,"packets":32}"#,
    r#"{"v":1,"tenant":"a","op":"register","nfs":["cmsketch"],"backend":"agilio-cx","precision":"f64","quota":2}"#,
    r#"{"v":1,"tenant":"a","op":"predict","nf":"vlantag"}"#,
    r#"{"v":1,"op":"stats"}"#,
    r#"{"v":1,"id":18446744073709551615,"op":"drain"}"#,
];

fn valid(i: usize) -> Vec<u8> {
    VALID[i % VALID.len()].as_bytes().to_vec()
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // Random bytes.
        proptest::collection::vec(0u8..=255, 0..96),
        // A valid request cut short.
        (0usize..VALID.len(), 0usize..256).prop_map(|(i, cut)| {
            let mut b = valid(i);
            b.truncate(cut % (b.len() + 1));
            b
        }),
        // A valid request with one byte flipped.
        (0usize..VALID.len(), 0usize..256, 1u8..=255).prop_map(|(i, at, x)| {
            let mut b = valid(i);
            let at = at % b.len();
            b[at] ^= x;
            b
        }),
        // A valid request with junk spliced in.
        (
            0usize..VALID.len(),
            0usize..256,
            proptest::collection::vec(0u8..=255, 1..12)
        )
            .prop_map(|(i, at, junk)| {
                let mut b = valid(i);
                let at = at % (b.len() + 1);
                b.splice(at..at, junk);
                b
            }),
    ]
}

#[test]
fn every_valid_request_parses() {
    for line in VALID {
        assert!(parse_request(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_request_never_panics(bytes in arb_input()) {
        let line = String::from_utf8_lossy(&bytes);
        let outcome = std::panic::catch_unwind(|| parse_request(&line).map(|_| ()));
        prop_assert!(outcome.is_ok(), "parse_request panicked on {line:?}");
        if let Ok(Err(detail)) = outcome {
            prop_assert!(!detail.is_empty(), "an error names its problem: {line:?}");
        }
    }
}
