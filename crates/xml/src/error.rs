use std::fmt;

/// Errors produced while parsing or validating XML documents and DTDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// The input ended before the parser finished a construct.
    UnexpectedEof {
        /// What the parser was in the middle of reading.
        context: &'static str,
    },
    /// A character that is not legal at the current position.
    UnexpectedChar {
        /// Byte offset into the input.
        offset: usize,
        /// The offending character.
        found: char,
        /// What was expected instead.
        expected: &'static str,
    },
    /// Closing tag does not match the open tag.
    MismatchedTag {
        /// Byte offset of the close tag.
        offset: usize,
        /// Name on the open tag.
        open: String,
        /// Name on the close tag.
        close: String,
    },
    /// An entity reference (`&...;`) that is not one of the five predefined
    /// XML entities or a numeric character reference.
    UnknownEntity {
        /// Byte offset of the reference.
        offset: usize,
        /// The entity name, without `&`/`;`.
        entity: String,
    },
    /// Elements, or DTD content-model groups, nest deeper than
    /// [`crate::MAX_DEPTH`] levels.
    NestingTooDeep {
        /// Byte offset of the first construct past the limit.
        offset: usize,
    },
    /// Trailing non-whitespace content after the root element.
    TrailingContent {
        /// Byte offset where the trailing content starts.
        offset: usize,
    },
    /// The document contains no root element.
    NoRootElement,
    /// A DTD declaration could not be parsed.
    InvalidDtd {
        /// Human-readable description of the problem.
        message: String,
    },
    /// The same element name is declared twice in one DTD.
    DuplicateElementDecl {
        /// The element name that is declared more than once.
        name: String,
    },
    /// A DTD references an element name with no `<!ELEMENT ...>` declaration.
    UndeclaredElement {
        /// The referenced-but-undeclared name.
        name: String,
    },
    /// A document element does not conform to the DTD content model.
    ValidationFailed {
        /// Name of the element whose content is invalid.
        element: String,
        /// Description of the violation.
        message: String,
    },
    /// The DTD has no unambiguous root (an element not contained by others).
    NoUniqueRoot {
        /// The candidate root names found (may be empty).
        candidates: Vec<String>,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            XmlError::UnexpectedChar {
                offset,
                found,
                expected,
            } => {
                write!(
                    f,
                    "unexpected character {found:?} at offset {offset}, expected {expected}"
                )
            }
            XmlError::MismatchedTag {
                offset,
                open,
                close,
            } => {
                write!(
                    f,
                    "mismatched close tag </{close}> for <{open}> at offset {offset}"
                )
            }
            XmlError::UnknownEntity { offset, entity } => {
                write!(f, "unknown entity &{entity}; at offset {offset}")
            }
            XmlError::NestingTooDeep { offset } => {
                write!(
                    f,
                    "nesting deeper than {} levels at offset {offset}",
                    crate::MAX_DEPTH
                )
            }
            XmlError::TrailingContent { offset } => {
                write!(f, "trailing content after root element at offset {offset}")
            }
            XmlError::NoRootElement => write!(f, "document contains no root element"),
            XmlError::InvalidDtd { message } => write!(f, "invalid DTD: {message}"),
            XmlError::DuplicateElementDecl { name } => {
                write!(f, "duplicate <!ELEMENT> declaration for {name}")
            }
            XmlError::UndeclaredElement { name } => {
                write!(f, "element {name} is referenced but never declared")
            }
            XmlError::ValidationFailed { element, message } => {
                write!(
                    f,
                    "element <{element}> does not match its content model: {message}"
                )
            }
            XmlError::NoUniqueRoot { candidates } => {
                write!(
                    f,
                    "DTD has no unique root element (candidates: {candidates:?})"
                )
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = XmlError::MismatchedTag {
            offset: 12,
            open: "a".into(),
            close: "b".into(),
        };
        let text = err.to_string();
        assert!(text.contains("</b>"));
        assert!(text.contains("<a>"));
        assert!(text.contains("12"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XmlError>();
    }
}
