//! Integration tests reproducing the paper's worked examples in miniature:
//! the Figure 5 training walkthrough and the Figure 7 XML-learner scenario.

use lsd::core::learners::{
    BaseLearner, ContentMatcher, NaiveBayesLearner, NameMatcher, XmlLearner,
};
use lsd::core::{combine_learners, Instance, LsdBuilder, Source, SourceWalk, TrainedSource};
use lsd::learn::{LabelSet, Prediction};
use lsd::xml::{parse_dtd, parse_fragment, Element};
use std::collections::HashMap;

/// Figure 5: two training sources (realestate.com, homeseekers.com), three
/// labels. We follow the training steps explicitly — extract, create
/// per-learner training data, train — and verify each intermediate artefact
/// has the shape the figure shows. The figure's fifth step (cross-validate,
/// regress stacking weights) is not part of this system: the trained
/// learners are combined with equal weights.
#[test]
fn figure5_training_walkthrough() {
    let labels = LabelSet::new(["ADDRESS", "DESCRIPTION", "AGENT-PHONE"]);

    // Step 2 — extract source data: 2 sources x 2 listings x 3 elements.
    let realestate = [
        ("Miami, FL", "Nice area", "(305) 729 0831"),
        ("Boston, MA", "Close to river", "(617) 253 1429"),
    ];
    let homeseekers = [
        ("Seattle, WA", "Fantastic house", "(206) 753 2605"),
        ("Portland, OR", "Great yard", "(515) 273 4312"),
    ];
    let mut listings = Vec::new();
    for (tags, rows) in [
        (["location", "comments", "contact"], &realestate),
        (["house-addr", "detailed-desc", "phone"], &homeseekers),
    ] {
        for (a, d, p) in rows.iter() {
            let root = parse_fragment(&format!(
                "<listing><{t0}>{a}</{t0}><{t1}>{d}</{t1}><{t2}>{p}</{t2}></listing>",
                t0 = tags[0],
                t1 = tags[1],
                t2 = tags[2]
            ))
            .expect("well-formed");
            listings.push((tags, root));
        }
    }
    let walks: Vec<_> = listings
        .iter()
        .map(|(tags, root)| (tags, SourceWalk::new(std::slice::from_ref(root))))
        .collect();
    let mut examples: Vec<(Instance, usize)> = Vec::new();
    for (tags, walk) in &walks {
        for (tag, label) in tags.iter().zip(0..3) {
            let column = walk.column(tag);
            assert!(!column.is_empty(), "column present");
            for &id in column {
                examples.push((walk.instance(id), label));
            }
        }
    }
    // 12 extracted XML elements → 12 training examples per base learner.
    assert_eq!(examples.len(), 12);

    // Steps 3–4 — train the base learners on their training data.
    let mut name = NameMatcher::with_synonym_pairs(labels.len(), []);
    let mut nb = NaiveBayesLearner::new(labels.len());
    BaseLearner::train(&mut name, &examples);
    BaseLearner::train(&mut nb, &examples);

    // Each trained learner predicts a distribution over the three labels.
    let area_element = parse_fragment("<area>Orlando, FL</area>").expect("ok");
    let area_text = area_element.deep_text();
    let area = Instance::new(&area_element, &["home", "area"], &area_text);
    let predictions = [
        BaseLearner::predict(&name, &area),
        BaseLearner::predict(&nb, &area),
    ];
    for p in &predictions {
        assert_eq!(p.len(), labels.len());
        assert!((p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    // Matching-phase combination (Section 3.2), on a fresh instance: each
    // learner's score weighted 1/2.
    let combined = combine_learners(&predictions, 2, labels.len());
    for label in 0..labels.len() {
        let mean = (predictions[0].score(label) + predictions[1].score(label)) / 2.0;
        assert!((combined.score(label) - mean).abs() < 1e-12);
    }
    assert_eq!(combined.best_label(), labels.get("ADDRESS").expect("label"));
}

/// Figure 7: a CONTACT-INFO element and a DESCRIPTION element share all
/// their words; flat Naive Bayes confuses them, the XML learner separates
/// them via structure tokens — through the full two-stage pipeline.
#[test]
fn figure7_xml_learner_pipeline() {
    let mediated = parse_dtd(
        "<!ELEMENT LISTING (CONTACT-INFO, DESCRIPTION)>\n\
         <!ELEMENT CONTACT-INFO (AGENT-NAME, OFFICE-NAME)>\n\
         <!ELEMENT AGENT-NAME (#PCDATA)>\n<!ELEMENT OFFICE-NAME (#PCDATA)>\n\
         <!ELEMENT DESCRIPTION (#PCDATA)>",
    )
    .expect("valid DTD");

    let train_dtd = parse_dtd(
        "<!ELEMENT entry (contact, description)>\n\
         <!ELEMENT contact (name, firm)>\n\
         <!ELEMENT name (#PCDATA)>\n<!ELEMENT firm (#PCDATA)>\n\
         <!ELEMENT description (#PCDATA)>",
    )
    .expect("valid DTD");
    let people = [
        ("Gail Murphy", "MAX Realtors"),
        ("Jane Kendall", "ACME Homes"),
        ("Mike Smith", "Windermere"),
        ("Kate Richardson", "Century 21"),
    ];
    let listings: Vec<_> = people
        .iter()
        .map(|(person, firm)| {
            parse_fragment(&format!(
                "<entry><contact><name>{person}</name><firm>{firm}</firm></contact>\
                 <description>Victorian house with a view. To see it, contact \
                 {person} at {firm}</description></entry>"
            ))
            .expect("well-formed")
        })
        .collect();
    let train = TrainedSource {
        source: Source::from_xml("train", train_dtd, listings),
        mapping: HashMap::from([
            ("entry".to_string(), "LISTING".to_string()),
            ("contact".to_string(), "CONTACT-INFO".to_string()),
            ("name".to_string(), "AGENT-NAME".to_string()),
            ("firm".to_string(), "OFFICE-NAME".to_string()),
            ("description".to_string(), "DESCRIPTION".to_string()),
        ]),
    };

    // Target source with the same pathology, different tag names.
    let target_dtd = parse_dtd(
        "<!ELEMENT rec (who, blurb)>\n\
         <!ELEMENT who (agent, company)>\n\
         <!ELEMENT agent (#PCDATA)>\n<!ELEMENT company (#PCDATA)>\n\
         <!ELEMENT blurb (#PCDATA)>",
    )
    .expect("valid DTD");
    let target_listings: Vec<_> = people
        .iter()
        .map(|(person, firm)| {
            parse_fragment(&format!(
                "<rec><who><agent>{person}</agent><company>{firm}</company></who>\
                 <blurb>Name your price! To see it, contact {person} at {firm}</blurb></rec>"
            ))
            .expect("well-formed")
        })
        .collect();
    let target = Source::from_xml("target", target_dtd, target_listings);

    let builder = LsdBuilder::new(&mediated);
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(ContentMatcher::new(n)))
        .add_learner(Box::new(NaiveBayesLearner::new(n)))
        .with_xml_learner(None)
        .build()
        .unwrap();
    lsd.train(std::slice::from_ref(&train)).unwrap();

    let outcome = lsd.match_source(&target).unwrap();
    assert_eq!(
        outcome.label_of("who"),
        Some("CONTACT-INFO"),
        "{:?}",
        outcome.labels
    );
    assert_eq!(
        outcome.label_of("blurb"),
        Some("DESCRIPTION"),
        "{:?}",
        outcome.labels
    );
}

/// The XML learner's isolated superiority on the Figure 7 pair (the
/// paper's claim: "the XML learner outperformed the Naive Bayes learner").
#[test]
fn figure7_xml_beats_flat_naive_bayes() {
    let labels = ["CONTACT-INFO", "DESCRIPTION"];
    let n = labels.len() + 1; // + OTHER
    let sub_labels = HashMap::from([
        ("name".to_string(), 5usize.min(n - 1)),
        ("firm".to_string(), n - 1),
    ]);
    let contact = |person: &str, firm: &str| {
        parse_fragment(&format!(
            "<contact><name>{person}</name><firm>{firm}</firm></contact>"
        ))
        .expect("ok")
    };
    let description = |person: &str, firm: &str| {
        parse_fragment(&format!(
            "<description>Lovely place, call {person} at {firm} today</description>"
        ))
        .expect("ok")
    };
    let people = [
        ("Gail Murphy", "MAX Realtors"),
        ("Jane Kendall", "ACME Homes"),
        ("Mike Smith", "Windermere"),
        ("Laura Davis", "Century 21"),
        ("Paul Walker", "Redfin Realty"),
    ];
    // A contact and a description per person, each with its root path and
    // label.
    let elements: Vec<(Element, [&str; 1], usize)> = people
        .iter()
        .flat_map(|&(person, firm)| {
            [
                (contact(person, firm), ["contact"], 0),
                (description(person, firm), ["description"], 1),
            ]
        })
        .collect();
    let texts: Vec<String> = elements.iter().map(|(e, _, _)| e.deep_text()).collect();
    let data: Vec<(Instance, usize)> = elements
        .iter()
        .zip(&texts)
        .map(|((element, path, label), text)| {
            let instance = Instance::new(element, path, text).with_sub_labels(&sub_labels);
            (instance, *label)
        })
        .collect();
    // The first four people train; the fifth is held out.
    let (train, held_out) = data.split_at(8);

    let mut xml = XmlLearner::new(n);
    let mut nb = NaiveBayesLearner::new(n);
    BaseLearner::train(&mut xml, train);
    BaseLearner::train(&mut nb, train);

    // Held-out pair (unseen person/firm): every content word is shared
    // between the two classes, so only structure separates them.
    let (test_contact, test_desc) = (&held_out[0].0, &held_out[1].0);
    let xml_correct = usize::from(BaseLearner::predict(&xml, test_contact).best_label() == 0)
        + usize::from(BaseLearner::predict(&xml, test_desc).best_label() == 1);
    assert_eq!(
        xml_correct, 2,
        "the XML learner must separate the Figure 7 pair"
    );
}

fn _assert_prediction_shape(p: &Prediction) {
    assert!((p.scores().iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

/// The headline promise of the reader redesign: one mediated real-estate
/// schema reconciles sources however they arrive. Train on an XML source
/// and a raw-JSON source, then match a CSV source and a SQL dump against
/// the same mediated schema. Mappings must land, provenance must record
/// each source's serialization, and batch matching must stay byte-identical
/// across thread counts.
#[test]
fn multi_format_sources_reconcile_to_one_mediated_schema() {
    use lsd::core::learners::{ContentMatcher as Cm, NaiveBayesLearner as Nb, NameMatcher as Nm};
    use lsd::{CsvReader, ExecPolicy, JsonReader, MatchOutcome, SourceFormat, SqlReader};

    let mediated = parse_dtd(
        "<!ELEMENT HOUSE (ADDRESS, DESCRIPTION, PHONE)>\n\
         <!ELEMENT ADDRESS (#PCDATA)>\n\
         <!ELEMENT DESCRIPTION (#PCDATA)>\n\
         <!ELEMENT PHONE (#PCDATA)>",
    )
    .expect("mediated DTD");

    // Training source 1 arrives as XML (the native path).
    let xml_rows = [
        ("Miami, FL", "Great view of the bay", "(305) 111 2222"),
        ("Boston, MA", "Fantastic yard and porch", "(617) 333 4444"),
        ("Austin, TX", "Nice area near downtown", "(512) 555 6666"),
        ("Omaha, NE", "Quiet street and big garage", "(402) 777 8888"),
    ];
    let xml_dtd = parse_dtd(
        "<!ELEMENT home (location, comments, contact)>\n\
         <!ELEMENT location (#PCDATA)>\n\
         <!ELEMENT comments (#PCDATA)>\n\
         <!ELEMENT contact (#PCDATA)>",
    )
    .expect("source DTD");
    let xml_listings: Vec<_> = xml_rows
        .iter()
        .map(|(a, d, p)| {
            parse_fragment(&format!(
                "<home><location>{a}</location><comments>{d}</comments>\
                 <contact>{p}</contact></home>"
            ))
            .expect("well-formed")
        })
        .collect();
    let xml_train = TrainedSource {
        source: Source::from_xml("realestate.com", xml_dtd, xml_listings),
        mapping: HashMap::from([
            ("home".to_string(), "HOUSE".to_string()),
            ("location".to_string(), "ADDRESS".to_string()),
            ("comments".to_string(), "DESCRIPTION".to_string()),
            ("contact".to_string(), "PHONE".to_string()),
        ]),
    };

    // Training source 2 arrives as raw JSON documents.
    let json_body = r#"[
        {"addr": "Seattle, WA", "desc": "Quiet street with garden", "tel": "(206) 123 9999"},
        {"addr": "Denver, CO", "desc": "Mountain views all around", "tel": "(303) 987 0000"},
        {"addr": "Portland, OR", "desc": "Close to parks and cafes", "tel": "(503) 321 4567"},
        {"addr": "Chicago, IL", "desc": "Renovated kitchen and bath", "tel": "(312) 765 4321"}
    ]"#;
    let json_train = TrainedSource {
        source: Source::from_reader("homeseekers.com", &JsonReader::new(json_body))
            .expect("json source"),
        mapping: HashMap::from([
            ("record".to_string(), "HOUSE".to_string()),
            ("addr".to_string(), "ADDRESS".to_string()),
            ("desc".to_string(), "DESCRIPTION".to_string()),
            ("tel".to_string(), "PHONE".to_string()),
        ]),
    };

    let builder = LsdBuilder::new(&mediated);
    let n = builder.labels().len();
    let mut lsd = builder
        .add_learner(Box::new(Nm::new(n, HashMap::new())))
        .add_learner(Box::new(Cm::new(n)))
        .add_learner(Box::new(Nb::new(n)))
        .with_xml_learner(None)
        .build()
        .expect("builds");
    lsd.train(&[xml_train, json_train]).expect("trains");

    // Provenance records how each training source arrived.
    let formats: Vec<(String, SourceFormat, usize)> = lsd
        .source_provenance()
        .iter()
        .map(|p| (p.source.clone(), p.format, p.listings))
        .collect();
    assert_eq!(
        formats,
        vec![
            ("realestate.com".to_string(), SourceFormat::Xml, 4),
            ("homeseekers.com".to_string(), SourceFormat::Json, 4),
        ]
    );

    // Target 1 arrives as CSV with a header row.
    let csv_body = "street,remarks,phone\n\
                    \"Raleigh, NC\",Corner lot with big trees,(919) 222 3333\n\
                    \"Tampa, FL\",Walkable and sunny near cafes,(813) 444 5555\n";
    let csv_source =
        Source::from_reader("csv-site", &CsvReader::new(csv_body)).expect("csv source");
    assert_eq!(csv_source.format, SourceFormat::Csv);

    // Target 2 arrives as a SQL dump.
    let sql_body = "CREATE TABLE listing (\n\
                      \"where\" TEXT,\n\
                      note TEXT,\n\
                      callnum TEXT\n\
                    );\n\
                    INSERT INTO listing VALUES\n\
                      ('Madison, WI', 'Sunny porch and a nice yard', '(608) 555 1234'),\n\
                      ('Reno, NV', 'Close to downtown and parks', '(775) 666 7788');";
    let sql_source =
        Source::from_reader("sql-site", &SqlReader::new(sql_body)).expect("sql source");
    assert_eq!(sql_source.format, SourceFormat::Sql);

    // Both reconcile onto the one mediated schema.
    let expectations: [(&Source, [(&str, &str); 3]); 2] = [
        (
            &csv_source,
            [
                ("street", "ADDRESS"),
                ("remarks", "DESCRIPTION"),
                ("phone", "PHONE"),
            ],
        ),
        (
            &sql_source,
            [
                ("where", "ADDRESS"),
                ("note", "DESCRIPTION"),
                ("callnum", "PHONE"),
            ],
        ),
    ];
    let mut serial: Vec<MatchOutcome> = Vec::new();
    for (source, wanted) in &expectations {
        let outcome = lsd.match_source(source).expect("matches");
        for (tag, label) in wanted {
            assert_eq!(
                outcome.label_of(tag),
                Some(*label),
                "{}: tag {tag}",
                source.name
            );
        }
        serial.push(outcome);
    }

    // The non-XML paths go through the same batch engine: byte-identical
    // at every thread count.
    let targets = [csv_source.clone(), sql_source.clone()];
    for threads in [1, 2, 8] {
        let batch = lsd
            .match_batch(&targets, &ExecPolicy::with_threads(threads))
            .expect("batch matches");
        for (b, s) in batch.iter().zip(&serial) {
            assert_eq!(b.tags, s.tags, "{threads} threads: tags differ");
            assert_eq!(b.labels, s.labels, "{threads} threads: labels differ");
            assert_eq!(
                b.result.assignment, s.result.assignment,
                "{threads} threads: assignment differs"
            );
            assert_eq!(
                b.result.cost.to_bits(),
                s.result.cost.to_bits(),
                "{threads} threads: cost differs"
            );
        }
    }
}
