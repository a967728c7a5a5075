//! Hostile input to the shared decoders: `json::parse` and
//! `frame::read_frame` see every byte a client or peer sends, so they must
//! answer anything with `Ok` or `Err` — never a panic, a stack overflow, or
//! an allocation the sender did not pay for.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor};
use tsmo_obs::frame::{read_frame, write_frame, MAX_FRAME_LEN};
use tsmo_obs::json;

/// The system allocator, noting the largest single allocation each thread
/// makes, so a test can bound what one decoder call reserves.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's arguments
// unchanged (the defaulted `alloc_zeroed` and `realloc` go through them),
// so `System`'s guarantees carry over; the record is a const-initialised
// thread-local `Cell` without a destructor, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: forwards the caller's layout unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Documents shaped like the suite's messages: nested objects and arrays,
/// escapes, numbers of every form, literals.
const VALID: [&str; 4] = [
    r#"{"type":"submit","spec":{"instance":"R101\n\t\"q\"é","seed":42,"deadline_ms":null}}"#,
    r#"{"front":[[512.25,4,0],[-1e-9,3.5E+2,0]],"routes":[[[1,3,2],[4]],[[]]],"ok":true}"#,
    r#"{"job":{"warm":[{"objectives":[1,2,3],"routes":[[1],[2,3]]}]},"found":false}"#,
    r#"[[[[[[{"a":[]}]]]]]]"#,
];

/// Bytes the parser branches on, so random documents reach past the
/// first token.
const ALPHABET: &[u8] = b"{}[]\",:0123456789.-+eE truefalsnul\\/u";

fn parse_bytes(bytes: &[u8]) {
    // Only panics matter here; any `Ok` or `Err` is a pass.
    let _ = json::parse(&String::from_utf8_lossy(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn random_bytes_never_panic_the_parser(bytes in prop::collection::vec(0u16..256, 0..256)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_bytes(&bytes);
    }

    fn random_json_shaped_text_never_panics_the_parser(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..256)
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| ALPHABET[i]).collect();
        parse_bytes(&bytes);
    }

    fn random_bytes_never_panic_the_frame_reader(
        bytes in prop::collection::vec(0u16..256, 0..64)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = read_frame(&mut Cursor::new(bytes));
    }
}

#[test]
fn every_truncation_and_bit_flip_of_valid_documents_is_handled() {
    for doc in VALID {
        assert!(json::parse(doc).is_ok(), "fixture must parse: {doc}");
        let bytes = doc.as_bytes();
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
}

#[test]
fn nesting_is_capped_without_overflowing_the_stack() {
    let depth = json::MAX_DEPTH;
    let ok = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(json::parse(&ok).is_ok());
    let too_deep = format!("{}{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
    assert!(json::parse(&too_deep).is_err());
    // A million-deep document on a thread with the default stack size.
    for open in ["[", "{\"a\":"] {
        let hostile = open.repeat(1_000_000);
        let rejected = std::thread::spawn(move || json::parse(&hostile).is_err())
            .join()
            .expect("the parser must not overflow the stack");
        assert!(rejected, "{open}… must be rejected");
    }
}

#[test]
fn a_lying_frame_header_is_an_error() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
    buf.extend_from_slice(b"12345");
    let mut cursor = Cursor::new(buf);
    LARGEST.with(|l| l.set(0));
    let err = read_frame(&mut cursor).expect_err("5 of 16 MiB is a short read");
    let largest = LARGEST.with(Cell::get);
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    assert!(
        largest <= 64 * 1024,
        "a 5-byte payload reserved {largest} bytes up front"
    );
}

#[test]
fn frames_larger_than_the_first_read_buffer_round_trip() {
    let big = "x".repeat(200 * 1024 + 17);
    let mut buf = Vec::new();
    write_frame(&mut buf, &big).unwrap();
    let mut cursor = Cursor::new(buf);
    assert_eq!(
        read_frame(&mut cursor).unwrap().as_deref(),
        Some(big.as_str())
    );
    assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
}
