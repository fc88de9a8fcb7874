//! Property-based tests for the domain generators: every generated dataset
//! must be structurally valid and internally consistent, for any seed and
//! any listing count.

use lsd_datagen::DomainId;
use lsd_xml::SchemaTree;
use proptest::prelude::*;

fn arb_domain() -> impl Strategy<Value = DomainId> {
    prop_oneof![
        Just(DomainId::RealEstate1),
        Just(DomainId::TimeSchedule),
        Just(DomainId::FacultyListings),
        Just(DomainId::RealEstate2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any seed: listings validate against their DTD, mappings point at
    /// declared tags and mediated labels, and the requested listing count
    /// is honoured.
    #[test]
    fn generated_domains_are_valid(id in arb_domain(), listings in 1usize..12, seed in any::<u64>()) {
        let domain = id.generate(listings, seed);
        let mediated: std::collections::HashSet<&str> =
            domain.mediated.element_names().collect();
        prop_assert_eq!(domain.sources.len(), 5);
        for source in &domain.sources {
            prop_assert_eq!(source.listings.len(), listings);
            for listing in &source.listings {
                source.dtd.validate(listing).map_err(|e| {
                    TestCaseError::fail(format!("{}/{}: {e}", domain.name, source.name))
                })?;
            }
            for (tag, label) in &source.mapping {
                prop_assert!(source.dtd.decl(tag).is_some());
                prop_assert!(mediated.contains(label.as_str()));
            }
            // The schema tree always builds (closed DTD, unique root).
            let tree = SchemaTree::from_dtd(&source.dtd).expect("valid schema");
            prop_assert!(tree.len() >= 10);
        }
    }

    /// The domain constraints never contradict the ground truth: the true
    /// mapping of every source is feasible under every hard constraint.
    #[test]
    fn truth_is_feasible_under_domain_constraints(id in arb_domain(), seed in any::<u64>()) {
        use lsd_constraints::{evaluate_partial, MatchingContext};
        use lsd_learn::{LabelSet, Prediction};

        let domain = id.generate(40, seed);
        let labels = LabelSet::new(domain.mediated.element_names().map(str::to_string));
        for source in &domain.sources {
            let schema = SchemaTree::from_dtd(&source.dtd).expect("valid schema");
            let tags: Vec<String> = schema.tag_names().map(str::to_string).collect();
            let walk = lsd_core::SourceWalk::new(&source.listings);
            let data = walk.source_data(tags.iter().map(String::as_str));
            let ctx = MatchingContext {
                labels: &labels,
                schema: &schema,
                tags: tags.clone(),
                predictions: vec![Prediction::uniform(labels.len()); tags.len()],
                data: &data,
                alpha: 1.0,
            };
            let truth: Vec<Option<usize>> = tags
                .iter()
                .map(|t| {
                    Some(
                        source
                            .mapping
                            .get(t)
                            .and_then(|m| labels.get(m))
                            .unwrap_or_else(|| labels.other()),
                    )
                })
                .collect();
            let cost = evaluate_partial(&ctx, &domain.constraints, &truth);
            prop_assert!(
                cost.is_finite(),
                "{}/{} (seed {seed}): ground truth infeasible",
                domain.name,
                source.name
            );
        }
    }
}
