//! Hostile input at the HTTP front door: `http::read_request` reads
//! untrusted bytes straight off a socket, so it must answer any input with
//! a request, a clean close or a typed `400`/`413`, never a panic. It must
//! also never read more than the head budget (16 KiB plus the one byte
//! that detects an overflow) plus the body the request declared. The
//! inputs are arbitrary bytes, HTTP-flavoured token soup (with huge and
//! negative `Content-Length` values and lines longer than the budget),
//! and single-byte mutations of a valid `POST /v1/match`.

use lsd_serve::http::{read_request, ReadOutcome};
use lsd_serve::ServeError;
use proptest::prelude::*;
use std::io::Cursor;

/// Bytes the head may take: 16 KiB plus the byte that detects overflow.
const HEAD_BUDGET: u64 = 16 * 1024 + 1;

/// The body limit the reader is given.
const MAX_BODY: usize = 1024;

/// Reads `bytes` as one request and checks the outcome and how much of
/// the input the reader consumed.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut reader = Cursor::new(bytes);
    let outcome = read_request(&mut reader, MAX_BODY);
    let consumed = reader.position();
    match outcome {
        ReadOutcome::Request(request) => {
            let declared = request.header("content-length").map_or(0, |v| {
                v.parse::<usize>().expect("a parsed request's length")
            });
            prop_assert_eq!(request.body.len(), declared);
            prop_assert!(
                consumed <= HEAD_BUDGET + declared as u64,
                "read {consumed} bytes for a {declared}-byte body"
            );
        }
        ReadOutcome::Closed => prop_assert_eq!(consumed, 0),
        ReadOutcome::Failed(ServeError::BadRequest { .. }) => {
            // A truncated body fails after reading at most the limit.
            prop_assert!(
                consumed <= HEAD_BUDGET + MAX_BODY as u64,
                "read {consumed} bytes"
            );
        }
        ReadOutcome::Failed(ServeError::PayloadTooLarge { length, limit }) => {
            prop_assert!(length > limit);
            prop_assert!(
                consumed <= HEAD_BUDGET,
                "read {consumed} bytes of a rejected body"
            );
        }
        ReadOutcome::Failed(other) => {
            return Err(TestCaseError::fail(format!("unexpected error {other:?}")));
        }
    }
    Ok(())
}

/// Pieces of request lines and headers, so random sequences of them reach
/// past the request line into header and body handling.
fn arb_token() -> impl Strategy<Value = String> {
    let tokens = [
        "GET",
        "POST",
        "post",
        "PUT",
        " ",
        "  ",
        "\t",
        "/",
        "/v1/match",
        "/v1/explain?tag=remarks",
        "/healthz",
        "?",
        "&",
        "%",
        "%2B",
        "HTTP/1.1",
        "HTTP/1.0",
        "HTTP/2",
        "\r\n",
        "\n",
        "\r",
        "\r\n\r\n",
        ":",
        ": ",
        "Host",
        "Content-Type",
        "application/json",
        "Connection: close",
        "Transfer-Encoding: chunked",
        "Transfer-Encoding: identity",
        "Content-Length: ",
        "content-length:",
        "0",
        "4",
        "17",
        "1024",
        "1025",
        "-1",
        "+5",
        "0x10",
        "18446744073709551615",
        "99999999999999999999999999",
        "{\"model\":\"m\"}",
        "é",
        "\u{0}",
    ];
    let options: Vec<BoxedStrategy<String>> = tokens
        .iter()
        .map(|t| Just(t.to_string()).boxed())
        .chain(std::iter::once("[ -~]{1,4}".boxed()))
        // Longer than the head budget on its own.
        .chain(std::iter::once(Just("x".repeat(17 * 1024)).boxed()))
        .collect();
    Union::new(options)
}

/// A valid `POST /v1/match` with its body.
fn valid_request() -> Vec<u8> {
    let body = r#"{"model":"real-estate-1","source":{"name":"probe","dtd":"<!ELEMENT house (location)> <!ELEMENT location (#PCDATA)>","listings":["<house><location>Austin, TX</location></house>"]}}"#;
    format!(
        "POST /v1/match HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One byte of the valid request overwritten, deleted or inserted, at a
/// position given as a fraction of its length.
#[derive(Debug, Clone)]
enum Mutation {
    Overwrite(u16, u8),
    Delete(u16),
    Insert(u16, u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u16>(), any::<u8>()).prop_map(|(at, b)| Mutation::Overwrite(at, b)),
        any::<u16>().prop_map(Mutation::Delete),
        (any::<u16>(), any::<u8>()).prop_map(|(at, b)| Mutation::Insert(at, b)),
    ]
}

fn position(at: u16, len: usize) -> usize {
    (at as usize * len) / (u16::MAX as usize + 1)
}

#[test]
fn the_valid_request_parses() {
    let bytes = valid_request();
    let mut reader = Cursor::new(&bytes[..]);
    let ReadOutcome::Request(request) = read_request(&mut reader, MAX_BODY) else {
        panic!("expected a request");
    };
    assert_eq!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/v1/match")
    );
    assert_eq!(reader.position(), bytes.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        check(&bytes)?;
    }

    #[test]
    fn token_soup_never_panics(tokens in prop::collection::vec(arb_token(), 0..40)) {
        check(tokens.concat().as_bytes())?;
    }

    #[test]
    fn mutated_requests_never_panic(mutation in arb_mutation()) {
        let mut bytes = valid_request();
        match mutation {
            Mutation::Overwrite(at, b) => {
                let at = position(at, bytes.len());
                bytes[at] = b;
            }
            Mutation::Delete(at) => {
                bytes.remove(position(at, bytes.len()));
            }
            Mutation::Insert(at, b) => bytes.insert(position(at, bytes.len() + 1), b),
        }
        check(&bytes)?;
    }
}
