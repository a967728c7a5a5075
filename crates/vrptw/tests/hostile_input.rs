//! `solomon::parse` reads instance text that peers supply (the solver
//! service and the mesh nodes both accept it over the wire). Whatever the
//! bytes, it must answer `Ok` or `Err` — never panic — and it must refuse
//! an instance too large to allocate before allocating it.

use proptest::prelude::*;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solomon::{self, MAX_SITES};

/// Bytes the parser branches on, so random texts reach past the header.
const ALPHABET: &[u8] = b"0123456789.-+eE \nVEHICLECUSTOMERNUMBERinfNaN";

fn valid_text() -> String {
    solomon::write(&GeneratorConfig::new(InstanceClass::RC1, 8, 3).build())
}

fn parse_bytes(bytes: &[u8]) {
    // Only panics matter here; any `Ok` or `Err` is a pass.
    let _ = solomon::parse(&String::from_utf8_lossy(bytes));
}

/// A valid instance text with `sites` sites, depot included.
fn text_with_sites(sites: usize) -> String {
    let mut text = String::from("BIG\n\nVEHICLE\nNUMBER CAPACITY\n  1000 1000\n\nCUSTOMER\n");
    text.push_str("CUST NO. XCOORD. YCOORD. DEMAND READY TIME DUE DATE SERVICE TIME\n");
    text.push_str("0 50 50 0 0 100000 0\n");
    for i in 1..sites {
        let (x, y) = (i % 100, i / 100);
        text.push_str(&format!("{i} {x} {y} 1 0 100000 1\n"));
    }
    text
}

#[test]
fn every_truncation_and_bit_flip_of_a_valid_text_is_handled() {
    let text = valid_text();
    assert!(solomon::parse(&text).is_ok(), "fixture must parse");
    let bytes = text.as_bytes();
    for end in 0..bytes.len() {
        parse_bytes(&bytes[..end]);
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            parse_bytes(&flipped);
        }
    }
}

#[test]
fn the_site_cap_is_enforced_at_its_boundary() {
    let at_cap = solomon::parse(&text_with_sites(MAX_SITES)).expect("the cap itself parses");
    assert_eq!(at_cap.n_sites(), MAX_SITES);
    let err = solomon::parse(&text_with_sites(MAX_SITES + 1)).expect_err("cap + 1 is refused");
    assert!(err.message.contains("sites"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn random_bytes_never_panic_the_parser(bytes in prop::collection::vec(0u16..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_bytes(&bytes);
    }

    fn random_solomon_shaped_text_never_panics_the_parser(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..512)
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| ALPHABET[i]).collect();
        parse_bytes(&bytes);
    }

    fn random_bytes_spliced_into_a_valid_text_never_panic(
        at in 0usize..4_096,
        noise in prop::collection::vec(0u16..256, 1..16)
    ) {
        let mut bytes = valid_text().into_bytes();
        let at = at % bytes.len();
        for (k, b) in noise.into_iter().enumerate() {
            if let Some(slot) = bytes.get_mut(at + k) {
                *slot = b as u8;
            }
        }
        parse_bytes(&bytes);
    }
}
