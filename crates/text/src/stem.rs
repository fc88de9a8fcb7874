//! The Porter stemming algorithm (M.F. Porter, 1980).
//!
//! LSD's Naive Bayes learner stems tokens before counting them (paper
//! Section 3.3: "parsing and stemming the words and symbols in the
//! instance"). This is a faithful port of the reference implementation:
//! steps 1a/1b/1c reduce plurals and -ed/-ing, steps 2–4 strip derivational
//! suffixes gated on the measure *m* (the number of vowel–consonant spans),
//! and step 5 tidies a trailing -e / double consonant.
//!
//! Words shorter than three letters or containing non-ASCII-alphabetic
//! characters are returned unchanged (stemming them is meaningless and the
//! tokenizer already isolates numbers and symbols).

/// A reusable Porter stemmer. Stateless between calls; the struct exists so
/// call sites read `stemmer.stem(word)`.
#[derive(Debug, Clone, Copy, Default, serde::Serialize, serde::Deserialize)]
pub struct PorterStemmer;

impl PorterStemmer {
    /// Creates a stemmer.
    pub fn new() -> Self {
        PorterStemmer
    }

    /// Stems one lowercase word.
    ///
    /// ```
    /// use lsd_text::PorterStemmer;
    /// let s = PorterStemmer::new();
    /// assert_eq!(s.stem("caresses"), "caress");
    /// assert_eq!(s.stem("relational"), "relat");
    /// assert_eq!(s.stem("hopping"), "hop");
    /// ```
    pub fn stem(&self, word: &str) -> String {
        let mut out = String::new();
        self.stem_into(word, &mut out);
        out
    }

    /// Stems one lowercase word into `out`, replacing what it held and
    /// reusing its allocation.
    ///
    /// ```
    /// use lsd_text::PorterStemmer;
    /// let mut out = String::from("leftover");
    /// PorterStemmer::new().stem_into("hopping", &mut out);
    /// assert_eq!(out, "hop");
    /// ```
    pub fn stem_into(&self, word: &str, out: &mut String) {
        out.clear();
        if word.len() <= 2 || !word.bytes().all(|b| b.is_ascii_lowercase()) {
            out.push_str(word);
            return;
        }
        let mut b = std::mem::take(out).into_bytes();
        b.extend_from_slice(word.as_bytes());
        let mut state = Stem {
            b,
            k: word.len() - 1,
        };
        state.step1ab();
        state.step1c();
        state.step2();
        state.step3();
        state.step4();
        state.step5();
        state.b.truncate(state.k + 1);
        *out = String::from_utf8(state.b).expect("ascii in, ascii out");
    }
}

struct Stem {
    b: Vec<u8>,
    /// Index of the last valid byte of the current stem.
    k: usize,
}

impl Stem {
    /// True if b[i] is a consonant.
    fn cons(&self, i: usize) -> bool {
        match self.b[i] {
            b'a' | b'e' | b'i' | b'o' | b'u' => false,
            b'y' => {
                if i == 0 {
                    true
                } else {
                    !self.cons(i - 1)
                }
            }
            _ => true,
        }
    }

    /// The measure m of the stem b[0..=j]: the number of VC spans.
    fn measure(&self, j: usize) -> usize {
        let mut n = 0;
        let mut i = 0;
        // Skip initial consonants.
        loop {
            if i > j {
                return n;
            }
            if !self.cons(i) {
                break;
            }
            i += 1;
        }
        i += 1;
        loop {
            // Skip vowels.
            loop {
                if i > j {
                    return n;
                }
                if self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
            n += 1;
            // Skip consonants.
            loop {
                if i > j {
                    return n;
                }
                if !self.cons(i) {
                    break;
                }
                i += 1;
            }
            i += 1;
        }
    }

    /// True if b[0..=j] contains a vowel.
    fn vowel_in_stem(&self, j: usize) -> bool {
        (0..=j).any(|i| !self.cons(i))
    }

    /// True if b[i-1..=i] is a double consonant.
    fn double_cons(&self, i: usize) -> bool {
        i >= 1 && self.b[i] == self.b[i - 1] && self.cons(i)
    }

    /// True if b[i-2..=i] is consonant-vowel-consonant and the final
    /// consonant is not w, x or y (the *o* condition).
    fn cvc(&self, i: usize) -> bool {
        if i < 2 || !self.cons(i) || self.cons(i - 1) || !self.cons(i - 2) {
            return false;
        }
        !matches!(self.b[i], b'w' | b'x' | b'y')
    }

    /// True if the stem ends with `s`; sets `j` via return value.
    fn ends(&self, s: &str) -> Option<usize> {
        let s = s.as_bytes();
        if s.len() > self.k + 1 {
            return None;
        }
        let start = self.k + 1 - s.len();
        if &self.b[start..=self.k] == s {
            Some(start.checked_sub(1).unwrap_or(usize::MAX))
        } else {
            None
        }
    }

    /// Replaces the suffix after `j` with `s` and updates `k`.
    fn set_to(&mut self, j: usize, s: &str) {
        let base = if j == usize::MAX { 0 } else { j + 1 };
        self.b.truncate(base);
        self.b.extend_from_slice(s.as_bytes());
        self.k = if self.b.is_empty() {
            0
        } else {
            self.b.len() - 1
        };
    }

    /// `ends` + measure>0 gate + replace: the workhorse of steps 2–4.
    fn replace_if_m(&mut self, suffix: &str, replacement: &str, min_m: usize) -> bool {
        if let Some(j) = self.ends(suffix) {
            if j != usize::MAX && self.measure(j) > min_m.saturating_sub(1) {
                self.set_to(j, replacement);
                return true;
            }
            // Suffix matched but condition failed: stop scanning this step.
            return true;
        }
        false
    }

    fn step1ab(&mut self) {
        // Step 1a: plurals.
        if self.b[self.k] == b's' {
            if let Some(j) = self.ends("sses") {
                self.set_to(j, "ss");
            } else if let Some(j) = self.ends("ies") {
                self.set_to(j, "i");
            } else if self.k >= 1 && self.b[self.k - 1] != b's' {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        }
        // Step 1b: -eed, -ed, -ing.
        if let Some(j) = self.ends("eed") {
            if j != usize::MAX && self.measure(j) > 0 {
                self.k -= 1;
                self.b.truncate(self.k + 1);
            }
        } else {
            let matched = if let Some(j) = self.ends("ed") {
                if j != usize::MAX && self.vowel_in_stem(j) {
                    self.set_to(j, "");
                    true
                } else {
                    false
                }
            } else if let Some(j) = self.ends("ing") {
                if j != usize::MAX && self.vowel_in_stem(j) {
                    self.set_to(j, "");
                    true
                } else {
                    false
                }
            } else {
                false
            };
            if matched {
                if self.ends("at").is_some()
                    || self.ends("bl").is_some()
                    || self.ends("iz").is_some()
                {
                    let k = self.k;
                    self.set_to(k, "e");
                } else if self.double_cons(self.k) {
                    if !matches!(self.b[self.k], b'l' | b's' | b'z') {
                        self.k -= 1;
                        self.b.truncate(self.k + 1);
                    }
                } else if self.measure(self.k) == 1 && self.cvc(self.k) {
                    let k = self.k;
                    self.set_to(k, "e");
                }
            }
        }
    }

    fn step1c(&mut self) {
        if self.b[self.k] == b'y' && self.k >= 1 && self.vowel_in_stem(self.k - 1) {
            self.b[self.k] = b'i';
        }
    }

    fn step2(&mut self) {
        if self.k == 0 {
            return;
        }
        let rules: &[(&str, &str)] = &[
            ("ational", "ate"),
            ("tional", "tion"),
            ("enci", "ence"),
            ("anci", "ance"),
            ("izer", "ize"),
            ("abli", "able"),
            ("alli", "al"),
            ("entli", "ent"),
            ("eli", "e"),
            ("ousli", "ous"),
            ("ization", "ize"),
            ("ation", "ate"),
            ("ator", "ate"),
            ("alism", "al"),
            ("iveness", "ive"),
            ("fulness", "ful"),
            ("ousness", "ous"),
            ("aliti", "al"),
            ("iviti", "ive"),
            ("biliti", "ble"),
        ];
        for (suffix, replacement) in rules {
            if self.replace_if_m(suffix, replacement, 1) {
                return;
            }
        }
    }

    fn step3(&mut self) {
        let rules: &[(&str, &str)] = &[
            ("icate", "ic"),
            ("ative", ""),
            ("alize", "al"),
            ("iciti", "ic"),
            ("ical", "ic"),
            ("ful", ""),
            ("ness", ""),
        ];
        for (suffix, replacement) in rules {
            if self.replace_if_m(suffix, replacement, 1) {
                return;
            }
        }
    }

    fn step4(&mut self) {
        let suffixes: &[&str] = &[
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent", "ion",
            "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        ];
        for suffix in suffixes {
            if let Some(j) = self.ends(suffix) {
                if j == usize::MAX {
                    return;
                }
                // -ion only drops after s or t.
                if *suffix == "ion" && !matches!(self.b[j], b's' | b't') {
                    return;
                }
                if self.measure(j) > 1 {
                    self.set_to(j, "");
                }
                return;
            }
        }
    }

    fn step5(&mut self) {
        // Step 5a: drop a trailing e when m > 1, or when m == 1 and the stem
        // does not end cvc.
        if self.b[self.k] == b'e' && self.k >= 1 {
            let j = self.k - 1;
            let m = self.measure(self.k);
            if m > 1 || (m == 1 && !self.cvc(j)) {
                self.k = j;
                self.b.truncate(self.k + 1);
            }
        }
        // Step 5b: -ll -> -l when m > 1.
        if self.k >= 1
            && self.b[self.k] == b'l'
            && self.double_cons(self.k)
            && self.measure(self.k) > 1
        {
            self.k -= 1;
            self.b.truncate(self.k + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stem(w: &str) -> String {
        PorterStemmer::new().stem(w)
    }

    #[test]
    fn step1a_plurals() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("ties"), "ti");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
    }

    #[test]
    fn step1b_ed_ing() {
        assert_eq!(stem("feed"), "feed");
        assert_eq!(stem("agreed"), "agre");
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("bled"), "bled");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("sing"), "sing");
    }

    #[test]
    fn step1b_cleanup() {
        assert_eq!(stem("conflated"), "conflat");
        assert_eq!(stem("troubled"), "troubl");
        assert_eq!(stem("sized"), "size");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("tanned"), "tan");
        assert_eq!(stem("falling"), "fall");
        assert_eq!(stem("hissing"), "hiss");
        assert_eq!(stem("fizzed"), "fizz");
        assert_eq!(stem("failing"), "fail");
        assert_eq!(stem("filing"), "file");
    }

    #[test]
    fn step1c_y_to_i() {
        assert_eq!(stem("happy"), "happi");
        assert_eq!(stem("sky"), "sky");
    }

    #[test]
    fn step2_derivational() {
        assert_eq!(stem("relational"), "relat");
        assert_eq!(stem("conditional"), "condit");
        assert_eq!(stem("rational"), "ration");
        assert_eq!(stem("digitizer"), "digit");
        assert_eq!(stem("operator"), "oper");
        assert_eq!(stem("feudalism"), "feudal");
        assert_eq!(stem("decisiveness"), "decis");
        assert_eq!(stem("hopefulness"), "hope");
        assert_eq!(stem("formaliti"), "formal");
    }

    #[test]
    fn step3() {
        assert_eq!(stem("triplicate"), "triplic");
        assert_eq!(stem("formative"), "form");
        assert_eq!(stem("formalize"), "formal");
        assert_eq!(stem("electrical"), "electr");
        assert_eq!(stem("hopeful"), "hope");
        assert_eq!(stem("goodness"), "good");
    }

    #[test]
    fn step4() {
        assert_eq!(stem("revival"), "reviv");
        assert_eq!(stem("allowance"), "allow");
        assert_eq!(stem("inference"), "infer");
        assert_eq!(stem("airliner"), "airlin");
        assert_eq!(stem("adjustable"), "adjust");
        assert_eq!(stem("defensible"), "defens");
        assert_eq!(stem("replacement"), "replac");
        assert_eq!(stem("adoption"), "adopt");
        assert_eq!(stem("communism"), "commun");
        assert_eq!(stem("activate"), "activ");
        assert_eq!(stem("effective"), "effect");
    }

    #[test]
    fn step5() {
        assert_eq!(stem("probate"), "probat");
        assert_eq!(stem("rate"), "rate");
        assert_eq!(stem("cease"), "ceas");
        assert_eq!(stem("controlling"), "control");
        assert_eq!(stem("rolling"), "roll");
    }

    #[test]
    fn domain_vocabulary() {
        // Words the real-estate learners see: stems must collide across forms.
        assert_eq!(stem("listings"), stem("listing"));
        assert_eq!(stem("houses"), stem("house"));
        assert_eq!(stem("located"), stem("location"));
        assert_eq!(stem("spacious"), "spaciou");
    }

    #[test]
    fn short_and_non_ascii_words_pass_through() {
        assert_eq!(stem("as"), "as");
        assert_eq!(stem("a"), "a");
        assert_eq!(stem("café"), "café");
        assert_eq!(stem("WA"), "WA"); // uppercase untouched
        assert_eq!(stem("70000"), "70000");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        let s = PorterStemmer::new();
        // Note: Porter is not idempotent in general ("universities" →
        // "univers" → "univ"); these common forms are.
        for w in [
            "running",
            "description",
            "beautiful",
            "agencies",
            "locations",
        ] {
            let once = s.stem(w);
            assert_eq!(s.stem(&once), once, "stem({w}) not idempotent");
        }
    }
}
