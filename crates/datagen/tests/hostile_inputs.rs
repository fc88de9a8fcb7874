//! Hostile input: the XML and DTD parsers and the CSV and SQL readers take
//! untrusted bytes (request bodies, uploaded sources), so each must answer
//! any input with `Ok` or a typed error, never a panic. The inputs are
//! arbitrary bytes, format-flavoured token soup, and datagen output with
//! random byte-level mutations (the last reach the deep parser states that
//! random bytes rarely do).

use lsd_core::{CsvReader, SourceReader, SqlReader};
use lsd_datagen::{emit_csv, emit_sql, emit_xml, DomainId};
use lsd_xml::{parse_dtd, parse_fragment};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Valid inputs of every format, from two sources of every domain: the
/// seeds the mutation strategy corrupts.
struct Corpus {
    xml: Vec<String>,
    dtd: Vec<String>,
    csv: Vec<String>,
    sql: Vec<String>,
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = Corpus {
            xml: Vec::new(),
            dtd: Vec::new(),
            csv: Vec::new(),
            sql: Vec::new(),
        };
        for id in DomainId::ALL {
            let domain = id.generate(3, 7);
            for source in &domain.sources[..2] {
                let (dtd, listings) = emit_xml(source);
                corpus.dtd.push(dtd);
                corpus.xml.extend(listings.into_iter().take(2));
                corpus.csv.extend(emit_csv(source));
                corpus.sql.extend(emit_sql(source));
            }
        }
        corpus
    })
}

/// One byte-level edit at a position given as a fraction of the length.
#[derive(Debug, Clone)]
enum Mutation {
    Delete { at: u16, len: u8 },
    Insert { at: u16, bytes: Vec<u8> },
    Duplicate { at: u16, len: u8 },
    Overwrite { at: u16, byte: u8 },
    Truncate { at: u16 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u16>(), 1u8..16).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (any::<u16>(), prop::collection::vec(any::<u8>(), 1..6))
            .prop_map(|(at, bytes)| Mutation::Insert { at, bytes }),
        (any::<u16>(), arb_token()).prop_map(|(at, token)| Mutation::Insert {
            at,
            bytes: token.into_bytes()
        }),
        (any::<u16>(), 1u8..32).prop_map(|(at, len)| Mutation::Duplicate { at, len }),
        (any::<u16>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Overwrite { at, byte }),
        any::<u16>().prop_map(|at| Mutation::Truncate { at }),
    ]
}

fn position(at: u16, len: usize) -> usize {
    (at as usize * (len + 1)) / (u16::MAX as usize + 1)
}

fn mutate(seed: &str, mutations: &[Mutation]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for m in mutations {
        match m {
            Mutation::Delete { at, len } => {
                let start = position(*at, bytes.len());
                let end = (start + *len as usize).min(bytes.len());
                bytes.drain(start..end);
            }
            Mutation::Insert { at, bytes: new } => {
                let at = position(*at, bytes.len());
                bytes.splice(at..at, new.iter().copied());
            }
            Mutation::Duplicate { at, len } => {
                let start = position(*at, bytes.len());
                let end = (start + *len as usize).min(bytes.len());
                let copy = bytes[start..end].to_vec();
                bytes.splice(end..end, copy);
            }
            Mutation::Overwrite { at, byte } => {
                if !bytes.is_empty() {
                    let at = position(*at, bytes.len() - 1);
                    bytes[at] = *byte;
                }
            }
            Mutation::Truncate { at } => {
                let at = position(*at, bytes.len());
                bytes.truncate(at);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Fragments of every format's syntax, so random sequences of them reach
/// past the first token of each grammar.
fn arb_token() -> impl Strategy<Value = String> {
    let tokens = [
        "<",
        ">",
        "</",
        "/>",
        "<a>",
        "</a>",
        "<b x=\"1\">",
        "</b>",
        "<?xml version=\"1.0\"?>",
        "<!--",
        "-->",
        "<![CDATA[",
        "]]>",
        "&amp;",
        "&#x41;",
        "&#65;",
        "&#xFFFFFFFF;",
        "&bogus;",
        "&",
        "\"",
        "'",
        "=",
        "<!DOCTYPE a [",
        "]>",
        "<!ELEMENT",
        "<!ATTLIST",
        "#PCDATA",
        "#REQUIRED",
        "#IMPLIED",
        "CDATA",
        "EMPTY",
        "ANY",
        "(",
        ")",
        "|",
        ",",
        "*",
        "+",
        "?",
        "a",
        "b",
        " ",
        "\n",
        "\r\n",
        "\t",
        ";",
        "CREATE TABLE",
        "create table",
        "t",
        "id",
        "INTEGER",
        "VARCHAR(10)",
        "PRIMARY KEY",
        "FOREIGN KEY",
        "REFERENCES",
        "INSERT INTO",
        "VALUES",
        "NULL",
        "--",
        "/*",
        "*/",
        "`",
        "[",
        "]",
        "1",
        "-1",
        "x,y",
        "\"\"",
        "é",
        "\u{0}",
    ];
    let options: Vec<BoxedStrategy<String>> = tokens
        .iter()
        .map(|t| Just(t.to_string()).boxed())
        .chain(std::iter::once("[ -~]{1,4}".boxed()))
        .collect();
    Union::new(options)
}

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(arb_token(), 0..40).prop_map(|tokens| tokens.concat())
}

fn arb_bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..200)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Runs every parser over `input`; a panic fails the calling test.
fn parse_all(input: &str) {
    let _ = parse_fragment(input);
    let _ = parse_dtd(input);
    let _ = CsvReader::new(input).read();
    let _ = SqlReader::new(input).read();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, decoded as a request body would be.
    #[test]
    fn arbitrary_bytes_never_panic(input in arb_bytes()) {
        parse_all(&input);
    }

    /// Random sequences of syntax fragments from all four formats.
    #[test]
    fn token_soup_never_panics(input in arb_soup()) {
        parse_all(&input);
    }

    /// Valid datagen output of each format, corrupted by up to four
    /// byte-level edits, fed to its own parser.
    #[test]
    fn mutated_datagen_output_never_panics(
        pick in any::<usize>(),
        mutations in prop::collection::vec(arb_mutation(), 1..5),
    ) {
        let corpus = corpus();
        let xml = mutate(&corpus.xml[pick % corpus.xml.len()], &mutations);
        let _ = parse_fragment(&xml);
        let dtd = mutate(&corpus.dtd[pick % corpus.dtd.len()], &mutations);
        let _ = parse_dtd(&dtd);
        let csv = mutate(&corpus.csv[pick % corpus.csv.len()], &mutations);
        let _ = CsvReader::new(csv).read();
        let sql = mutate(&corpus.sql[pick % corpus.sql.len()], &mutations);
        let _ = SqlReader::new(sql).read();
    }
}
