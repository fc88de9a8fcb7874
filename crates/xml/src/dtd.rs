//! DTD (document type descriptor) content-model grammar.
//!
//! A DTD is a BNF-style grammar that defines legal elements and the
//! relationships between them (paper Section 2.1). We support the standard
//! `<!ELEMENT name spec>` declaration syntax with `EMPTY`, `ANY`,
//! `(#PCDATA)`, mixed content `(#PCDATA | a | b)*`, and element content
//! built from sequences `(a, b)`, choices `(a | b)` and the `?`/`*`/`+`
//! occurrence operators. `<!ATTLIST>` declarations are accepted and skipped
//! (the paper treats attributes like sub-elements).

use crate::error::XmlError;
use crate::span::Span;
use crate::tree::Element;
use crate::{Result, MAX_DEPTH};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// How many times a content particle may occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Occurrence {
    /// Exactly once (no suffix).
    One,
    /// Zero or one time (`?`).
    Optional,
    /// Any number of times (`*`).
    ZeroOrMore,
    /// One or more times (`+`).
    OneOrMore,
}

impl Occurrence {
    fn suffix(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::Optional => "?",
            Occurrence::ZeroOrMore => "*",
            Occurrence::OneOrMore => "+",
        }
    }
}

/// The content specification of one element declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContentModel {
    /// `EMPTY` — no content allowed.
    Empty,
    /// `ANY` — any declared elements and text.
    Any,
    /// `(#PCDATA)` — text only.
    Pcdata,
    /// `(#PCDATA | a | b)*` — text interleaved with the named elements.
    Mixed(Vec<String>),
    /// A named child element with an occurrence suffix.
    Name(String, Occurrence),
    /// `(a, b, c)` — ordered sequence, with an occurrence suffix.
    Seq(Vec<ContentModel>, Occurrence),
    /// `(a | b | c)` — alternation, with an occurrence suffix.
    Choice(Vec<ContentModel>, Occurrence),
}

impl ContentModel {
    /// Collects every element name referenced by this model, in first-seen
    /// declaration order.
    pub fn referenced_names(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        self.collect_names(&mut seen, &mut out);
        out
    }

    fn collect_names(&self, seen: &mut BTreeSet<String>, out: &mut Vec<String>) {
        match self {
            ContentModel::Empty | ContentModel::Any | ContentModel::Pcdata => {}
            ContentModel::Mixed(names) => {
                for n in names {
                    if seen.insert(n.clone()) {
                        out.push(n.clone());
                    }
                }
            }
            ContentModel::Name(n, _) => {
                if seen.insert(n.clone()) {
                    out.push(n.clone());
                }
            }
            ContentModel::Seq(parts, _) | ContentModel::Choice(parts, _) => {
                for p in parts {
                    p.collect_names(seen, out);
                }
            }
        }
    }

    /// True if the model permits text content.
    pub fn allows_text(&self) -> bool {
        matches!(
            self,
            ContentModel::Pcdata | ContentModel::Mixed(_) | ContentModel::Any
        )
    }

    /// Renders the model back to DTD syntax.
    pub fn to_dtd_syntax(&self) -> String {
        match self {
            ContentModel::Empty => "EMPTY".to_string(),
            ContentModel::Any => "ANY".to_string(),
            ContentModel::Pcdata => "(#PCDATA)".to_string(),
            ContentModel::Mixed(names) => {
                let mut s = String::from("(#PCDATA");
                for n in names {
                    s.push_str(" | ");
                    s.push_str(n);
                }
                s.push_str(")*");
                s
            }
            ContentModel::Name(n, occ) => format!("{n}{}", occ.suffix()),
            ContentModel::Seq(parts, occ) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_dtd_syntax()).collect();
                format!("({}){}", inner.join(", "), occ.suffix())
            }
            ContentModel::Choice(parts, occ) => {
                let inner: Vec<String> = parts.iter().map(|p| p.to_dtd_syntax()).collect();
                format!("({}){}", inner.join(" | "), occ.suffix())
            }
        }
    }

    /// Matches a sequence of child element names against the model, treating
    /// the model as a regular expression over names. Implemented as a
    /// position-set simulation (no backtracking blow-up).
    fn matches_children(&self, names: &[&str]) -> bool {
        let ends = self.advance(names, &BTreeSet::from([0usize]));
        ends.contains(&names.len())
    }

    /// Given a set of start indices into `names`, returns the set of indices
    /// reachable after this particle consumes some prefix from each start.
    fn advance(&self, names: &[&str], starts: &BTreeSet<usize>) -> BTreeSet<usize> {
        let (base, occ): (BTreeSet<usize>, Occurrence) = match self {
            ContentModel::Empty | ContentModel::Pcdata => return starts.clone(),
            ContentModel::Any => {
                // ANY consumes any suffix.
                let min = match starts.iter().next() {
                    Some(&m) => m,
                    None => return BTreeSet::new(),
                };
                return (min..=names.len()).collect();
            }
            ContentModel::Mixed(allowed) => {
                // Mixed is (a|b|...)* over the element children.
                let mut current = starts.clone();
                loop {
                    let mut next = BTreeSet::new();
                    for &i in &current {
                        if i < names.len() && allowed.iter().any(|a| a == names[i]) {
                            next.insert(i + 1);
                        }
                    }
                    let before = current.len();
                    current.extend(next);
                    if current.len() == before {
                        return current;
                    }
                }
            }
            ContentModel::Name(n, occ) => {
                let mut out = BTreeSet::new();
                for &i in starts {
                    if i < names.len() && names[i] == n {
                        out.insert(i + 1);
                    }
                }
                (out, *occ)
            }
            ContentModel::Seq(parts, occ) => {
                let mut current = starts.clone();
                for p in parts {
                    current = p.advance(names, &current);
                    if current.is_empty() {
                        break;
                    }
                }
                (current, *occ)
            }
            ContentModel::Choice(parts, occ) => {
                let mut out = BTreeSet::new();
                for p in parts {
                    out.extend(p.advance(names, starts));
                }
                (out, *occ)
            }
        };
        apply_occurrence(self, names, starts, base, occ)
    }
}

/// Applies `?`/`*`/`+` semantics on top of a single-iteration result.
fn apply_occurrence(
    model: &ContentModel,
    names: &[&str],
    starts: &BTreeSet<usize>,
    once: BTreeSet<usize>,
    occ: Occurrence,
) -> BTreeSet<usize> {
    match occ {
        Occurrence::One => once,
        Occurrence::Optional => once.union(starts).copied().collect(),
        Occurrence::ZeroOrMore | Occurrence::OneOrMore => {
            // Fixpoint of repeated application.
            let mut all: BTreeSet<usize> = once.clone();
            let mut frontier = once;
            while !frontier.is_empty() {
                let next = strip_occurrence(model).advance(names, &frontier);
                frontier = next.difference(&all).copied().collect();
                all.extend(frontier.iter().copied());
            }
            if occ == Occurrence::ZeroOrMore {
                all.extend(starts.iter().copied());
            }
            all
        }
    }
}

/// Returns a copy of the particle with occurrence `One`, used to iterate the
/// body of a `*`/`+` without re-applying the operator.
fn strip_occurrence(model: &ContentModel) -> ContentModel {
    match model {
        ContentModel::Name(n, _) => ContentModel::Name(n.clone(), Occurrence::One),
        ContentModel::Seq(p, _) => ContentModel::Seq(p.clone(), Occurrence::One),
        ContentModel::Choice(p, _) => ContentModel::Choice(p.clone(), Occurrence::One),
        other => other.clone(),
    }
}

/// One `<!ELEMENT name spec>` declaration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ElementDecl {
    /// Declared element name.
    pub name: String,
    /// Its content specification.
    pub content: ContentModel,
    /// Byte span of the whole `<!ELEMENT ...>` declaration in the text it
    /// was parsed from, or [`Span::SYNTHETIC`] for DTDs built in memory.
    #[serde(default)]
    pub span: Span,
}

impl ElementDecl {
    /// A declaration built in memory (no source location).
    pub fn new(name: impl Into<String>, content: ContentModel) -> Self {
        ElementDecl {
            name: name.into(),
            content,
            span: Span::SYNTHETIC,
        }
    }

    /// The same declaration carrying a source span.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }
}

// Equality is structural: the span records *where* a declaration was
// parsed from, not *what* it declares, so reformatting must not break
// round-trip comparisons.
impl PartialEq for ElementDecl {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.content == other.content
    }
}

impl Eq for ElementDecl {}

/// One attribute definition inside an `<!ATTLIST ...>` declaration. The
/// type and default are accepted but not retained — the paper treats
/// attributes like sub-elements, so only the name matters downstream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttDef {
    /// The attribute name.
    pub name: String,
    /// Byte span of the attribute name in the source text.
    #[serde(default)]
    pub span: Span,
}

impl PartialEq for AttDef {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for AttDef {}

/// One `<!ATTLIST element att type default ...>` declaration. Previously
/// these were skipped wholesale; they are now retained (names + spans) so
/// static analysis can flag duplicate attribute declarations and attlists
/// for undeclared elements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttlistDecl {
    /// The element the attributes belong to.
    pub element: String,
    /// The declared attributes, in source order.
    pub attrs: Vec<AttDef>,
    /// Byte span of the whole `<!ATTLIST ...>` declaration.
    #[serde(default)]
    pub span: Span,
}

impl PartialEq for AttlistDecl {
    fn eq(&self, other: &Self) -> bool {
        self.element == other.element && self.attrs == other.attrs
    }
}

impl Eq for AttlistDecl {}

/// A parsed DTD: the ordered list of element declarations plus an index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Dtd {
    decls: Vec<ElementDecl>,
    /// Retained `<!ATTLIST ...>` declarations, in source order.
    #[serde(default)]
    attlists: Vec<AttlistDecl>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl Dtd {
    /// Builds a DTD from declarations, rejecting duplicates.
    pub fn new(decls: Vec<ElementDecl>) -> Result<Self> {
        Dtd::with_attlists(decls, Vec::new())
    }

    /// Builds a DTD from element and attribute-list declarations,
    /// rejecting duplicate element declarations.
    pub fn with_attlists(decls: Vec<ElementDecl>, attlists: Vec<AttlistDecl>) -> Result<Self> {
        let mut index = HashMap::with_capacity(decls.len());
        for (i, d) in decls.iter().enumerate() {
            if index.insert(d.name.clone(), i).is_some() {
                return Err(XmlError::DuplicateElementDecl {
                    name: d.name.clone(),
                });
            }
        }
        Ok(Dtd {
            decls,
            attlists,
            index,
        })
    }

    /// The retained `<!ATTLIST ...>` declarations, in source order.
    pub fn attlists(&self) -> &[AttlistDecl] {
        &self.attlists
    }

    /// The declarations in source order.
    pub fn declarations(&self) -> &[ElementDecl] {
        &self.decls
    }

    /// Looks up a declaration by element name.
    pub fn decl(&self, name: &str) -> Option<&ElementDecl> {
        self.index.get(name).map(|&i| &self.decls[i])
    }

    /// All declared element names in source order.
    pub fn element_names(&self) -> impl Iterator<Item = &str> {
        self.decls.iter().map(|d| d.name.as_str())
    }

    /// Number of declared elements.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// True if the DTD declares no elements.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Checks that every referenced element name is declared.
    pub fn check_closed(&self) -> Result<()> {
        for d in &self.decls {
            for n in d.content.referenced_names() {
                if !self.index.contains_key(&n) {
                    return Err(XmlError::UndeclaredElement { name: n });
                }
            }
        }
        Ok(())
    }

    /// Determines the root element: the unique declared element that is not
    /// referenced in any other element's content model. If several qualify
    /// (or none, in a cyclic DTD) the first declared element wins, matching
    /// the common convention of declaring the root first.
    pub fn root_name(&self) -> Result<&str> {
        if self.decls.is_empty() {
            return Err(XmlError::NoUniqueRoot { candidates: vec![] });
        }
        let mut referenced: BTreeSet<&str> = BTreeSet::new();
        for d in &self.decls {
            for n in d.content.referenced_names() {
                if let Some(&i) = self.index.get(&n) {
                    referenced.insert(&self.decls[i].name);
                }
            }
        }
        let candidates: Vec<&str> = self
            .decls
            .iter()
            .map(|d| d.name.as_str())
            .filter(|n| !referenced.contains(n))
            .collect();
        match candidates.len() {
            1 => Ok(candidates[0]),
            _ => Ok(&self.decls[0].name),
        }
    }

    /// Validates an element tree against this DTD: every element must be
    /// declared and its children must match its content model; text content
    /// is only allowed where the model permits it.
    pub fn validate(&self, element: &Element) -> Result<()> {
        let decl = self
            .decl(&element.name)
            .ok_or_else(|| XmlError::UndeclaredElement {
                name: element.name.clone(),
            })?;
        let child_names: Vec<&str> = element.child_elements().map(|e| e.name.as_str()).collect();
        match &decl.content {
            ContentModel::Empty => {
                if !element.children.is_empty() {
                    return Err(XmlError::ValidationFailed {
                        element: element.name.clone(),
                        message: "declared EMPTY but has content".to_string(),
                    });
                }
            }
            ContentModel::Any => {}
            ContentModel::Pcdata => {
                if !child_names.is_empty() {
                    return Err(XmlError::ValidationFailed {
                        element: element.name.clone(),
                        message: format!(
                            "declared (#PCDATA) but contains child elements {child_names:?}"
                        ),
                    });
                }
            }
            model => {
                if !model.allows_text() && !element.direct_text().is_empty() {
                    return Err(XmlError::ValidationFailed {
                        element: element.name.clone(),
                        message: "element content model does not allow text".to_string(),
                    });
                }
                if !model.matches_children(&child_names) {
                    return Err(XmlError::ValidationFailed {
                        element: element.name.clone(),
                        message: format!(
                            "children {child_names:?} do not match {}",
                            model.to_dtd_syntax()
                        ),
                    });
                }
            }
        }
        for child in element.child_elements() {
            self.validate(child)?;
        }
        Ok(())
    }

    /// Renders the whole DTD back to `<!ELEMENT ...>` syntax. A bare name
    /// content model is parenthesized — `<!ELEMENT r (a?)>` — since DTD
    /// content specifications must be groups.
    pub fn to_dtd_syntax(&self) -> String {
        let mut out = String::new();
        for d in &self.decls {
            out.push_str("<!ELEMENT ");
            out.push_str(&d.name);
            out.push(' ');
            match &d.content {
                ContentModel::Name(..) => {
                    out.push('(');
                    out.push_str(&d.content.to_dtd_syntax());
                    out.push(')');
                }
                other => out.push_str(&other.to_dtd_syntax()),
            }
            out.push_str(">\n");
        }
        out
    }
}

/// Parses a sequence of `<!ELEMENT ...>` declarations (whitespace and
/// comments between them are skipped). `<!ATTLIST ...>` declarations are
/// parsed tolerantly and retained — attribute names and spans survive for
/// static analysis, while types and defaults are discarded.
///
/// Every produced [`ElementDecl`] and [`AttlistDecl`] carries the byte
/// [`Span`] of its declaration in `input`, so diagnostics can point at the
/// offending text.
pub fn parse_dtd(input: &str) -> Result<Dtd> {
    let mut p = DtdParser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    let mut decls = Vec::new();
    let mut attlists = Vec::new();
    loop {
        p.skip_trivia()?;
        if p.at_end() {
            break;
        }
        let start = p.pos;
        if p.starts_with("<!ELEMENT") {
            p.pos += "<!ELEMENT".len();
            let decl = p.parse_element_decl()?;
            decls.push(decl.with_span(Span::new(start, p.pos)));
        } else if p.starts_with("<!ATTLIST") {
            p.pos += "<!ATTLIST".len();
            let mut attlist = p.parse_attlist_decl()?;
            attlist.span = Span::new(start, p.pos);
            attlists.push(attlist);
        } else {
            return Err(XmlError::InvalidDtd {
                message: format!(
                    "expected <!ELEMENT or <!ATTLIST at offset {}, found {:?}",
                    p.pos,
                    p.input[p.pos..].chars().take(12).collect::<String>()
                ),
            });
        }
    }
    Dtd::with_attlists(decls, attlists)
}

struct DtdParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> DtdParser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                match self.input[self.pos..].find("-->") {
                    Some(rel) => self.pos += rel + 3,
                    None => {
                        return Err(XmlError::UnexpectedEof {
                            context: "DTD comment",
                        });
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(XmlError::InvalidDtd {
                message: format!("expected a name at offset {start}"),
            });
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn parse_element_decl(&mut self) -> Result<ElementDecl> {
        let name = self.parse_name()?;
        self.skip_ws();
        let content = if self.starts_with("EMPTY") {
            self.pos += 5;
            ContentModel::Empty
        } else if self.starts_with("ANY") {
            self.pos += 3;
            ContentModel::Any
        } else if self.peek() == Some(b'(') {
            self.parse_group(1)?
        } else {
            return Err(XmlError::InvalidDtd {
                message: format!(
                    "expected content spec for element {name} at offset {}",
                    self.pos
                ),
            });
        };
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(XmlError::InvalidDtd {
                message: format!(
                    "expected '>' closing declaration of {name} at offset {}",
                    self.pos
                ),
            });
        }
        self.pos += 1;
        Ok(ElementDecl::new(name, content))
    }

    /// Parses the body of an `<!ATTLIST element (att type default)*>`
    /// declaration. Attribute names (with spans) are kept; types —
    /// including parenthesized enumerations — and defaults — including
    /// `#REQUIRED` / `#IMPLIED` / `#FIXED "v"` and quoted literals — are
    /// validated for shape and discarded.
    fn parse_attlist_decl(&mut self) -> Result<AttlistDecl> {
        let element = self.parse_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(AttlistDecl {
                        element,
                        attrs,
                        span: Span::SYNTHETIC,
                    });
                }
                Some(_) => {
                    let start = self.pos;
                    let name = self.parse_name()?;
                    attrs.push(AttDef {
                        name,
                        span: Span::new(start, self.pos),
                    });
                    self.skip_attribute_type()?;
                    self.skip_attribute_default()?;
                }
                None => {
                    return Err(XmlError::UnexpectedEof {
                        context: "ATTLIST declaration",
                    });
                }
            }
        }
    }

    /// Skips an attribute type: a parenthesized enumeration or a keyword
    /// such as `CDATA` / `ID` / `NMTOKEN`.
    fn skip_attribute_type(&mut self) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(b'(') {
            let mut depth = 0usize;
            while let Some(b) = self.peek() {
                self.pos += 1;
                match b {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(());
                        }
                    }
                    _ => {}
                }
            }
            Err(XmlError::UnexpectedEof {
                context: "ATTLIST enumerated type",
            })
        } else {
            self.parse_name().map(drop)
        }
    }

    /// Skips an attribute default: `#REQUIRED`, `#IMPLIED`, `#FIXED "v"`,
    /// or a bare quoted literal.
    fn skip_attribute_default(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'#') => {
                self.pos += 1;
                let keyword = self.parse_name()?;
                if keyword == "FIXED" {
                    self.skip_ws();
                    self.skip_quoted()?;
                }
                Ok(())
            }
            Some(b'"') | Some(b'\'') => self.skip_quoted(),
            other => Err(XmlError::InvalidDtd {
                message: format!(
                    "expected attribute default (#REQUIRED, #IMPLIED, #FIXED or a \
                     quoted literal) at offset {}, found {other:?}",
                    self.pos
                ),
            }),
        }
    }

    /// Skips a quoted literal, honouring the opening quote character.
    fn skip_quoted(&mut self) -> Result<()> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(XmlError::InvalidDtd {
                    message: format!("expected a quoted literal at offset {}", self.pos),
                });
            }
        };
        self.pos += 1;
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == quote {
                return Ok(());
            }
        }
        Err(XmlError::UnexpectedEof {
            context: "quoted attribute literal",
        })
    }

    /// Parses a parenthesized group: `(#PCDATA)`, `(#PCDATA | a | b)*`,
    /// `(cp, cp, ...)` or `(cp | cp | ...)`, plus an occurrence suffix.
    /// `depth` counts enclosing groups, this one included.
    fn parse_group(&mut self, depth: usize) -> Result<ContentModel> {
        debug_assert_eq!(self.peek(), Some(b'('));
        if depth > MAX_DEPTH {
            return Err(XmlError::NestingTooDeep { offset: self.pos });
        }
        self.pos += 1;
        self.skip_ws();
        if self.starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            self.skip_ws();
            if self.peek() == Some(b')') {
                self.pos += 1;
                // Allow an optional trailing '*' on plain (#PCDATA).
                if self.peek() == Some(b'*') {
                    self.pos += 1;
                }
                return Ok(ContentModel::Pcdata);
            }
            let mut names = Vec::new();
            while self.peek() == Some(b'|') {
                self.pos += 1;
                names.push(self.parse_name()?);
                self.skip_ws();
            }
            if self.peek() != Some(b')') {
                return Err(XmlError::InvalidDtd {
                    message: format!("expected ')' closing mixed content at offset {}", self.pos),
                });
            }
            self.pos += 1;
            if self.peek() == Some(b'*') {
                self.pos += 1;
            } else if !names.is_empty() {
                return Err(XmlError::InvalidDtd {
                    message: format!(
                        "mixed content with names must end with ')*' (offset {})",
                        self.pos
                    ),
                });
            }
            return Ok(ContentModel::Mixed(names));
        }

        let mut parts = vec![self.parse_cp(depth)?];
        self.skip_ws();
        let separator = match self.peek() {
            Some(b',') => Some(b','),
            Some(b'|') => Some(b'|'),
            Some(b')') => None,
            other => {
                return Err(XmlError::InvalidDtd {
                    message: format!(
                        "expected ',', '|' or ')' in group at offset {}, found {other:?}",
                        self.pos
                    ),
                })
            }
        };
        if let Some(sep) = separator {
            while self.peek() == Some(sep) {
                self.pos += 1;
                parts.push(self.parse_cp(depth)?);
                self.skip_ws();
            }
            if matches!(self.peek(), Some(b',') | Some(b'|')) {
                return Err(XmlError::InvalidDtd {
                    message: format!(
                        "cannot mix ',' and '|' at the same level (offset {})",
                        self.pos
                    ),
                });
            }
        }
        if self.peek() != Some(b')') {
            return Err(XmlError::InvalidDtd {
                message: format!("expected ')' closing group at offset {}", self.pos),
            });
        }
        self.pos += 1;
        let occ = self.parse_occurrence();
        Ok(match separator {
            Some(b'|') => ContentModel::Choice(parts, occ),
            _ if parts.len() == 1 && occ == Occurrence::One => parts.pop().expect("one part"),
            _ => ContentModel::Seq(parts, occ),
        })
    }

    /// Parses a content particle of a group `depth` levels deep: a name or
    /// a nested group with a suffix.
    fn parse_cp(&mut self, depth: usize) -> Result<ContentModel> {
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.parse_group(depth + 1)
        } else {
            let name = self.parse_name()?;
            let occ = self.parse_occurrence();
            Ok(ContentModel::Name(name, occ))
        }
    }

    fn parse_occurrence(&mut self) -> Occurrence {
        let occ = match self.peek() {
            Some(b'?') => Occurrence::Optional,
            Some(b'*') => Occurrence::ZeroOrMore,
            Some(b'+') => Occurrence::OneOrMore,
            _ => return Occurrence::One,
        };
        self.pos += 1;
        occ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_fragment;

    const MEDIATED: &str = "<!ELEMENT house-listing (location?, price, contact)>\n\
         <!ELEMENT location (#PCDATA)>\n\
         <!ELEMENT price (#PCDATA)>\n\
         <!ELEMENT contact (name, phone)>\n\
         <!ELEMENT name (#PCDATA)>\n\
         <!ELEMENT phone (#PCDATA)>";

    #[test]
    fn parses_paper_mediated_schema() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        assert_eq!(dtd.len(), 6);
        assert_eq!(dtd.root_name().unwrap(), "house-listing");
        dtd.check_closed().unwrap();
        let hl = dtd.decl("house-listing").unwrap();
        assert_eq!(
            hl.content.referenced_names(),
            vec!["location", "price", "contact"]
        );
    }

    #[test]
    fn validates_conforming_document() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        let doc = parse_fragment(
            "<house-listing><location>Seattle, WA</location><price>$70,000</price>\
             <contact><name>Kate</name><phone>(206) 523 4719</phone></contact></house-listing>",
        )
        .unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn optional_element_may_be_absent() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        let doc = parse_fragment(
            "<house-listing><price>$1</price>\
             <contact><name>K</name><phone>5</phone></contact></house-listing>",
        )
        .unwrap();
        dtd.validate(&doc).unwrap();
    }

    #[test]
    fn missing_required_element_fails() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        let doc = parse_fragment("<house-listing><price>$1</price></house-listing>").unwrap();
        let err = dtd.validate(&doc).unwrap_err();
        assert!(
            matches!(err, XmlError::ValidationFailed { element, .. } if element == "house-listing")
        );
    }

    #[test]
    fn wrong_order_fails() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        let doc = parse_fragment(
            "<house-listing><contact><name>K</name><phone>5</phone></contact>\
             <price>$1</price></house-listing>",
        )
        .unwrap();
        assert!(dtd.validate(&doc).is_err());
    }

    #[test]
    fn pcdata_rejects_child_elements() {
        let dtd = parse_dtd("<!ELEMENT a (#PCDATA)>").unwrap();
        let doc = parse_fragment("<a><b/></a>").unwrap();
        assert!(dtd.validate(&doc).is_err());
    }

    #[test]
    fn star_and_plus() {
        let dtd =
            parse_dtd("<!ELEMENT r (a*, b+)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>")
                .unwrap();
        assert!(dtd
            .validate(&parse_fragment("<r><b>1</b></r>").unwrap())
            .is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a><a>2</a><b>3</b><b>4</b></r>").unwrap())
            .is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a></r>").unwrap())
            .is_err());
    }

    #[test]
    fn choice_groups() {
        let dtd = parse_dtd(
            "<!ELEMENT r ((a | b), c)>\n<!ELEMENT a (#PCDATA)>\n\
             <!ELEMENT b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>",
        )
        .unwrap();
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a><c>2</c></r>").unwrap())
            .is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><b>1</b><c>2</c></r>").unwrap())
            .is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a><b>1</b><c>2</c></r>").unwrap())
            .is_err());
    }

    #[test]
    fn nested_group_with_occurrence() {
        let dtd =
            parse_dtd("<!ELEMENT r ((a, b)*)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>")
                .unwrap();
        assert!(dtd.validate(&parse_fragment("<r/>").unwrap()).is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a><b>2</b><a>3</a><b>4</b></r>").unwrap())
            .is_ok());
        assert!(dtd
            .validate(&parse_fragment("<r><a>1</a></r>").unwrap())
            .is_err());
    }

    #[test]
    fn mixed_content() {
        let dtd = parse_dtd("<!ELEMENT d (#PCDATA | em)*>\n<!ELEMENT em (#PCDATA)>").unwrap();
        let doc = parse_fragment("<d>hello <em>world</em> bye</d>").unwrap();
        dtd.validate(&doc).unwrap();
        let bad = parse_fragment("<d><other/></d>").unwrap();
        assert!(matches!(
            dtd.validate(&bad).unwrap_err(),
            XmlError::ValidationFailed { element, .. } if element == "d"
        ));
    }

    #[test]
    fn empty_content_model() {
        let dtd = parse_dtd("<!ELEMENT br EMPTY>").unwrap();
        assert!(dtd.validate(&parse_fragment("<br/>").unwrap()).is_ok());
        assert!(dtd
            .validate(&parse_fragment("<br>x</br>").unwrap())
            .is_err());
    }

    #[test]
    fn any_content_model() {
        let dtd = parse_dtd("<!ELEMENT r ANY>\n<!ELEMENT a (#PCDATA)>").unwrap();
        assert!(dtd
            .validate(&parse_fragment("<r>text <a>1</a> more</r>").unwrap())
            .is_ok());
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let err = parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ELEMENT a (#PCDATA)>").unwrap_err();
        assert!(matches!(err, XmlError::DuplicateElementDecl { name } if name == "a"));
    }

    #[test]
    fn undeclared_reference_detected() {
        let dtd = parse_dtd("<!ELEMENT r (ghost)>").unwrap();
        assert!(matches!(
            dtd.check_closed().unwrap_err(),
            XmlError::UndeclaredElement { name } if name == "ghost"
        ));
    }

    #[test]
    fn mixing_separators_rejected() {
        assert!(parse_dtd("<!ELEMENT r (a, b | c)>").is_err());
    }

    #[test]
    fn attlist_retained_with_names() {
        let dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA)>\n<!ATTLIST a id CDATA #REQUIRED>\n<!ELEMENT b (#PCDATA)>",
        )
        .unwrap();
        assert_eq!(dtd.len(), 2);
        assert_eq!(dtd.attlists().len(), 1);
        let attlist = &dtd.attlists()[0];
        assert_eq!(attlist.element, "a");
        assert_eq!(attlist.attrs.len(), 1);
        assert_eq!(attlist.attrs[0].name, "id");
        assert!(!attlist.span.is_synthetic());
    }

    #[test]
    fn attlist_parses_enumerations_and_defaults() {
        let dtd = parse_dtd(
            "<!ELEMENT a (#PCDATA)>\n\
             <!ATTLIST a kind (big | small) \"big\"\n\
                         id ID #IMPLIED\n\
                         ver CDATA #FIXED \"1.0\">",
        )
        .unwrap();
        let names: Vec<&str> = dtd.attlists()[0]
            .attrs
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, vec!["kind", "id", "ver"]);
    }

    #[test]
    fn attlist_default_may_contain_gt() {
        // A '>' inside a quoted default must not terminate the declaration
        // (the old skip-to-'>' fast path got this wrong).
        let dtd = parse_dtd("<!ELEMENT a (#PCDATA)>\n<!ATTLIST a note CDATA \"x > y\">").unwrap();
        assert_eq!(dtd.attlists()[0].attrs[0].name, "note");
    }

    #[test]
    fn declarations_carry_source_spans() {
        let text = "<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (a)>";
        let dtd = parse_dtd(text).unwrap();
        let a = &dtd.declarations()[0];
        let b = &dtd.declarations()[1];
        assert_eq!(&text[a.span.start..a.span.end], "<!ELEMENT a (#PCDATA)>");
        assert_eq!(&text[b.span.start..b.span.end], "<!ELEMENT b (a)>");
    }

    #[test]
    fn spans_do_not_affect_equality() {
        let parsed = parse_dtd("<!ELEMENT a (#PCDATA)>").unwrap();
        let built = Dtd::new(vec![ElementDecl::new("a", ContentModel::Pcdata)]).unwrap();
        assert_eq!(parsed, built);
    }

    #[test]
    fn comments_skipped() {
        let dtd = parse_dtd("<!-- mediated schema -->\n<!ELEMENT a (#PCDATA)>").unwrap();
        assert_eq!(dtd.len(), 1);
    }

    #[test]
    fn roundtrip_through_syntax() {
        let dtd = parse_dtd(MEDIATED).unwrap();
        let rendered = dtd.to_dtd_syntax();
        let reparsed = parse_dtd(&rendered).unwrap();
        assert_eq!(dtd, reparsed);
    }

    #[test]
    fn root_detection_prefers_unreferenced() {
        let dtd = parse_dtd("<!ELEMENT leaf (#PCDATA)>\n<!ELEMENT top (leaf)>").unwrap();
        assert_eq!(dtd.root_name().unwrap(), "top");
    }

    #[test]
    fn pcdata_star_accepted() {
        let dtd = parse_dtd("<!ELEMENT a (#PCDATA)*>").unwrap();
        assert_eq!(dtd.decl("a").unwrap().content, ContentModel::Pcdata);
    }

    fn nested_groups(depth: usize) -> String {
        format!(
            "<!ELEMENT a {}b{}>\n<!ELEMENT b (#PCDATA)>",
            "(".repeat(depth),
            ")".repeat(depth)
        )
    }

    #[test]
    fn groups_nested_up_to_the_limit_parse() {
        let dtd = parse_dtd(&nested_groups(MAX_DEPTH)).unwrap();
        assert_eq!(
            dtd.decl("a").unwrap().content,
            ContentModel::Name("b".into(), Occurrence::One)
        );
    }

    #[test]
    fn groups_nested_past_the_limit_are_a_typed_error() {
        let prefix = "<!ELEMENT a ".len();
        assert_eq!(
            parse_dtd(&nested_groups(MAX_DEPTH + 1)).unwrap_err(),
            XmlError::NestingTooDeep {
                offset: prefix + MAX_DEPTH
            }
        );
        // Far past the limit: an error, not a stack overflow.
        let deep = parse_dtd(&nested_groups(200_000)).unwrap_err();
        assert!(matches!(deep, XmlError::NestingTooDeep { .. }), "{deep}");
    }
}
