//! Row-aligned extracted source data, for verifying column constraints.
//!
//! Column constraints (Table 1, "Column") involve the data of the target
//! source: "If a matches HOUSE-ID, then a is a key", "a & b functionally
//! determine c". They can only be *refuted* from extracted data — a
//! duplicate value proves a tag is not a key; equal determinant tuples with
//! different dependents refute an FD. The absence of a counterexample in
//! the sample is treated as consistency (paper Section 4.1).

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Extracted data for one source: per listing (row), the value of each
/// source tag in that listing, if present.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(from = "SourceDataParts", into = "SourceDataParts")]
pub struct SourceData {
    tags: Vec<String>,
    tag_index: HashMap<String, usize>,
    /// `rows[r][t]` — the text value of tag `t` in listing `r`.
    rows: Vec<Vec<Option<String>>>,
}

/// The serialized shape of [`SourceData`]; the tag index is rebuilt on
/// deserialization.
#[derive(Clone, Serialize, Deserialize)]
struct SourceDataParts {
    tags: Vec<String>,
    rows: Vec<Vec<Option<String>>>,
}

impl From<SourceDataParts> for SourceData {
    fn from(parts: SourceDataParts) -> Self {
        let tag_index = parts
            .tags
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        SourceData {
            tags: parts.tags,
            tag_index,
            rows: parts.rows,
        }
    }
}

impl From<SourceData> for SourceDataParts {
    fn from(data: SourceData) -> Self {
        SourceDataParts {
            tags: data.tags,
            rows: data.rows,
        }
    }
}

impl SourceData {
    /// Creates an empty store for the given source tags.
    pub fn new<I, S>(tags: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tags: Vec<String> = tags.into_iter().map(Into::into).collect();
        let tag_index = tags
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        SourceData {
            tags,
            tag_index,
            rows: Vec::new(),
        }
    }

    /// Appends one listing given `(tag, value)` pairs; tags not present in
    /// this store are ignored, missing tags become `None`. If a tag occurs
    /// several times in one listing, its values are joined with `" | "`
    /// into a single cell (a repeated tag is one listing-level fact for
    /// column-constraint purposes).
    pub fn push_row<'a>(&mut self, values: impl IntoIterator<Item = (&'a str, &'a str)>) {
        let mut row: Vec<Option<String>> = vec![None; self.tags.len()];
        for (tag, value) in values {
            if let Some(&i) = self.tag_index.get(tag) {
                match &mut row[i] {
                    Some(existing) => {
                        existing.push_str(" | ");
                        existing.push_str(value);
                    }
                    slot => *slot = Some(value.to_string()),
                }
            }
        }
        self.rows.push(row);
    }

    /// The tags this store tracks.
    pub fn tags(&self) -> &[String] {
        &self.tags
    }

    /// Number of listings.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Non-missing values of one tag, in row order. Placeholder values
    /// ("unknown", "n/a", …) count as missing: the paper performs exactly
    /// this trivial cleaning, and without it two "unknown" cells would
    /// spuriously refute key and functional-dependency constraints.
    pub fn column(&self, tag: &str) -> Vec<&str> {
        match self.tag_index.get(tag) {
            Some(&i) => self
                .rows
                .iter()
                .filter_map(|r| r[i].as_deref())
                .filter(|v| !is_placeholder(v))
                .collect(),
            None => Vec::new(),
        }
    }

    /// True if the tag's non-missing values contain a duplicate — i.e. the
    /// extracted data *refutes* "this tag is a key".
    pub fn has_duplicates(&self, tag: &str) -> bool {
        let mut seen = HashSet::new();
        self.column(tag).into_iter().any(|v| !seen.insert(v))
    }

    /// True if the sample refutes the functional dependency
    /// `determinants → dependent`: two rows agree on all determinant values
    /// (all present) but disagree on the dependent.
    pub fn fd_refuted(&self, determinants: &[&str], dependent: &str) -> bool {
        let det_idx: Vec<usize> = match determinants
            .iter()
            .map(|t| self.tag_index.get(*t).copied())
            .collect::<Option<Vec<_>>>()
        {
            Some(v) => v,
            None => return false, // unknown tag: nothing to refute
        };
        let Some(&dep_idx) = self.tag_index.get(dependent) else {
            return false;
        };
        let mut seen: HashMap<Vec<&str>, &str> = HashMap::new();
        for row in &self.rows {
            let key: Option<Vec<&str>> = det_idx
                .iter()
                .map(|&i| row[i].as_deref().filter(|v| !is_placeholder(v)))
                .collect();
            let (Some(key), Some(dep)) =
                (key, row[dep_idx].as_deref().filter(|v| !is_placeholder(v)))
            else {
                continue;
            };
            match seen.get(&key) {
                Some(&prev) if prev != dep => return true,
                Some(_) => {}
                None => {
                    seen.insert(key, dep);
                }
            }
        }
        false
    }

    /// Fraction of the tag's values that parse as numbers after stripping
    /// common formatting (`$`, `,`, `%`, whitespace). Returns `None` when
    /// the column is empty. Used by constraint pre-processing (Section 7:
    /// "constraints on an element being textual or numeric").
    pub fn numeric_fraction(&self, tag: &str) -> Option<f64> {
        let col = self.column(tag);
        if col.is_empty() {
            return None;
        }
        let numeric = col.iter().filter(|v| is_numeric_value(v)).count();
        Some(numeric as f64 / col.len() as f64)
    }

    /// [`Self::has_duplicates`] and [`Self::numeric_fraction`] of one tag,
    /// from a single pass over its column that stops hashing values once a
    /// duplicate is found.
    pub(crate) fn key_and_numeric(&self, tag: &str) -> (bool, Option<f64>) {
        let Some(&i) = self.tag_index.get(tag) else {
            return (false, None);
        };
        let mut seen = HashSet::new();
        let mut duplicates = false;
        let (mut values, mut numeric) = (0usize, 0usize);
        for v in self
            .rows
            .iter()
            .filter_map(|r| r[i].as_deref())
            .filter(|v| !is_placeholder(v))
        {
            values += 1;
            numeric += usize::from(is_numeric_value(v));
            duplicates = duplicates || !seen.insert(v);
        }
        (
            duplicates,
            (values > 0).then(|| numeric as f64 / values as f64),
        )
    }

    /// Mean token count of the tag's values; `None` for an empty column.
    pub fn mean_token_count(&self, tag: &str) -> Option<f64> {
        let col = self.column(tag);
        if col.is_empty() {
            return None;
        }
        let total: usize = col.iter().map(|v| v.split_whitespace().count()).sum();
        Some(total as f64 / col.len() as f64)
    }
}

/// True if the value is a placeholder for missing data (the paper's
/// "unknown"/"unk" noise, removed by its trivial cleaning step).
pub(crate) fn is_placeholder(value: &str) -> bool {
    let v = value.trim();
    v.is_empty()
        || v.eq_ignore_ascii_case("unknown")
        || v.eq_ignore_ascii_case("unk")
        || v.eq_ignore_ascii_case("n/a")
        || v.eq_ignore_ascii_case("na")
        || v.eq_ignore_ascii_case("tba")
        || v == "-"
}

/// True if a value is numeric after stripping `$ , % #` and whitespace.
pub(crate) fn is_numeric_value(value: &str) -> bool {
    // `f64::from_str` accepts only digits, `.`, signs, an exponent and the
    // letters of `inf`/`infinity`/`nan` (any case): reject any other
    // character before building the cleaned copy. Long free-text values
    // fail on their first letters.
    let parsable = |c: char| {
        c.is_ascii_digit()
            || matches!(
                c.to_ascii_lowercase(),
                '.' | '+' | '-' | 'e' | 'i' | 'n' | 'f' | 't' | 'y' | 'a'
            )
    };
    if !value
        .chars()
        .all(|c| parsable(c) || matches!(c, '$' | ',' | '%' | '#') || c.is_whitespace())
    {
        return false;
    }
    let cleaned: String = value
        .chars()
        .filter(|c| !matches!(c, '$' | ',' | '%' | '#') && !c.is_whitespace())
        .collect();
    !cleaned.is_empty() && cleaned.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SourceData {
        let mut d = SourceData::new(["id", "beds", "price", "city", "zip"]);
        d.push_row([
            ("id", "1"),
            ("beds", "3"),
            ("price", "$250,000"),
            ("city", "Miami"),
            ("zip", "33101"),
        ]);
        d.push_row([
            ("id", "2"),
            ("beds", "3"),
            ("price", "$110,000"),
            ("city", "Boston"),
            ("zip", "02108"),
        ]);
        d.push_row([
            ("id", "3"),
            ("beds", "2"),
            ("price", "$90,000"),
            ("city", "Miami"),
            ("zip", "33101"),
        ]);
        d
    }

    #[test]
    fn serde_roundtrip_rebuilds_index() {
        let d = sample();
        let json = serde_json::to_string(&d).expect("serializes");
        let back: SourceData = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.column("city"), d.column("city"));
        assert!(back.has_duplicates("beds"));
    }

    #[test]
    fn key_refutation() {
        let d = sample();
        assert!(!d.has_duplicates("id"), "id is a key in the sample");
        assert!(
            d.has_duplicates("beds"),
            "beds has duplicates → cannot be a key"
        );
    }

    #[test]
    fn fd_refutation() {
        let mut d = sample();
        // city → zip holds in the sample so far.
        assert!(!d.fd_refuted(&["city"], "zip"));
        d.push_row([("id", "4"), ("city", "Miami"), ("zip", "33139")]);
        assert!(d.fd_refuted(&["city"], "zip"));
    }

    #[test]
    fn fd_with_missing_values_skips_rows() {
        let mut d = SourceData::new(["a", "b"]);
        d.push_row([("a", "x")]); // b missing
        d.push_row([("a", "x"), ("b", "1")]);
        d.push_row([("a", "x"), ("b", "1")]);
        assert!(!d.fd_refuted(&["a"], "b"));
    }

    #[test]
    fn fd_unknown_tags_never_refute() {
        let d = sample();
        assert!(!d.fd_refuted(&["ghost"], "zip"));
        assert!(!d.fd_refuted(&["city"], "ghost"));
    }

    #[test]
    fn numeric_fraction_strips_formatting() {
        let d = sample();
        assert_eq!(d.numeric_fraction("price"), Some(1.0));
        assert_eq!(d.numeric_fraction("city"), Some(0.0));
        assert_eq!(d.numeric_fraction("missing"), None);
    }

    /// The one-pass column profile equals the two separate answers on
    /// random columns mixing duplicates, numbers, formatted numbers,
    /// placeholders and gaps, and on an unknown tag.
    #[test]
    fn key_and_numeric_agrees_with_separate_passes() {
        use rand::{Rng, SeedableRng};
        const VALUES: [&str; 10] = [
            "12", "$1,200", "3.5 %", "n/a", "unknown", " ", "Seattle", "7 beds", "-", "12",
        ];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for _ in 0..200 {
            let mut d = SourceData::new(["a", "b"]);
            for _ in 0..rng.gen_range(0..6) {
                let a = VALUES[rng.gen_range(0..VALUES.len())];
                let b = format!("v{}", rng.gen_range(0..4));
                let row: Vec<(&str, &str)> = [("a", a), ("b", b.as_str())]
                    .into_iter()
                    .filter(|_| rng.gen_bool(0.8))
                    .collect();
                d.push_row(row);
            }
            for tag in ["a", "b", "missing"] {
                assert_eq!(
                    d.key_and_numeric(tag),
                    (d.has_duplicates(tag), d.numeric_fraction(tag)),
                    "{tag} over {:?}",
                    d.rows
                );
            }
        }
    }

    #[test]
    fn mean_token_count() {
        let mut d = SourceData::new(["desc"]);
        d.push_row([("desc", "great house")]);
        d.push_row([("desc", "close to the river bank")]);
        assert_eq!(d.mean_token_count("desc"), Some(3.5));
    }

    #[test]
    fn repeated_tag_in_one_row_joins() {
        let mut d = SourceData::new(["phone"]);
        d.push_row([("phone", "111"), ("phone", "222")]);
        assert_eq!(d.column("phone"), vec!["111 | 222"]);
    }

    #[test]
    fn unknown_tags_in_push_are_ignored() {
        let mut d = SourceData::new(["a"]);
        d.push_row([("zzz", "1"), ("a", "2")]);
        assert_eq!(d.column("a"), vec!["2"]);
        assert_eq!(d.num_rows(), 1);
    }

    #[test]
    fn numeric_value_detection() {
        assert!(is_numeric_value("$70,000"));
        assert!(is_numeric_value("3.5"));
        assert!(is_numeric_value("  42 "));
        assert!(is_numeric_value("95%"));
        assert!(!is_numeric_value("three"));
        assert!(!is_numeric_value(""));
        assert!(!is_numeric_value("$"));
    }

    #[test]
    fn numeric_prefilter_agrees_with_parsing() {
        let reference = |value: &str| {
            let cleaned: String = value
                .chars()
                .filter(|c| !matches!(c, '$' | ',' | '%' | '#') && !c.is_whitespace())
                .collect();
            !cleaned.is_empty() && cleaned.parse::<f64>().is_ok()
        };
        let alphabet = [
            '1', '.', 'e', 'E', '-', '+', 'i', 'n', 'f', 'a', 't', 'y', 'N', 'I', '$', ',', ' ',
            'x', 'é', '٣', '\u{a0}',
        ];
        let mut values: Vec<String> = vec![
            "inf".into(),
            "-Infinity".into(),
            "NaN".into(),
            "+.5e-3".into(),
            "1_000".into(),
            "0x10".into(),
            "$ 1,250.00 %".into(),
        ];
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    values.push([a, b, c].iter().collect());
                }
            }
        }
        for v in &values {
            assert_eq!(is_numeric_value(v), reference(v), "{v:?}");
        }
    }
}
