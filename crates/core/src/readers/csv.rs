//! The CSV reader: header columns become flat tags, each row becomes one
//! listing.

use super::{sanitize_tag, ReadError, SourceContents, SourceFormat, SourceReader};
use lsd_xml::{ContentModel, Dtd, Element, ElementDecl, Occurrence};

/// Reads a CSV source (RFC 4180 subset: quoted fields, `""` escapes,
/// CRLF or LF line endings). The header row names the columns; each later
/// row becomes a `<record>` listing with one leaf per non-empty cell. The
/// schema skeleton comes straight from the header: an ordered sequence of
/// the columns, each optional where the data has gaps.
pub struct CsvReader {
    text: String,
    record_tag: String,
}

impl CsvReader {
    /// A reader over comma-separated text; listing roots are tagged
    /// `record`.
    pub fn new(text: impl Into<String>) -> Self {
        CsvReader {
            text: text.into(),
            record_tag: "record".to_string(),
        }
    }

    /// Overrides the tag wrapped around each row (the listing root).
    pub fn with_record_tag(mut self, tag: impl AsRef<str>) -> Self {
        self.record_tag = sanitize_tag(tag.as_ref());
        self
    }
}

fn err(detail: impl Into<String>) -> ReadError {
    ReadError::new(SourceFormat::Csv, detail)
}

/// Splits CSV text into records of fields, honoring quoting.
fn parse_records(text: &str) -> Result<Vec<Vec<String>>, ReadError> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut field_started = false;
    let mut line = 1usize;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
            continue;
        }
        match c {
            '"' if field.is_empty() && !field_started => {
                in_quotes = true;
                field_started = true;
            }
            ',' => {
                record.push(std::mem::take(&mut field));
                field_started = false;
            }
            '\r' if chars.peek() == Some(&'\n') => {}
            '\n' => {
                line += 1;
                record.push(std::mem::take(&mut field));
                field_started = false;
                // A fully empty line (e.g. the trailing newline) ends no record.
                if record.len() > 1 || !record[0].is_empty() {
                    records.push(std::mem::take(&mut record));
                } else {
                    record.clear();
                }
            }
            _ => {
                field.push(c);
                field_started = true;
            }
        }
    }
    if in_quotes {
        return Err(err(format!("unterminated quoted field (line {line})")));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

impl SourceReader for CsvReader {
    fn format(&self) -> SourceFormat {
        SourceFormat::Csv
    }

    fn read(&self) -> Result<SourceContents, ReadError> {
        let records = parse_records(&self.text)?;
        let Some((header, rows)) = records.split_first() else {
            return Err(err("input is empty; expected a header row"));
        };
        let columns: Vec<String> = header.iter().map(|h| sanitize_tag(h)).collect();
        for (i, col) in columns.iter().enumerate() {
            if columns[..i].contains(col) {
                return Err(err(format!(
                    "duplicate column \"{col}\" in the header (after sanitizing)"
                )));
            }
            if *col == self.record_tag {
                return Err(err(format!(
                    "column \"{col}\" collides with the record tag"
                )));
            }
        }
        if rows.is_empty() {
            return Err(err("no data rows after the header"));
        }

        let mut column_gaps = vec![false; columns.len()];
        let mut listings = Vec::with_capacity(rows.len());
        for (ri, row) in rows.iter().enumerate() {
            if row.len() > columns.len() {
                return Err(err(format!(
                    "row {} has {} fields but the header declares {} columns",
                    ri + 2,
                    row.len(),
                    columns.len()
                )));
            }
            let mut listing = Element::new(self.record_tag.clone());
            for (ci, col) in columns.iter().enumerate() {
                match row.get(ci).map(String::as_str) {
                    Some(cell) if !cell.is_empty() => {
                        listing.push_child(Element::text_leaf(col.clone(), cell));
                    }
                    _ => column_gaps[ci] = true,
                }
            }
            listings.push(listing);
        }

        // The header *is* the schema: record → ordered column sequence.
        let mut decls = Vec::with_capacity(columns.len() + 1);
        let parts = columns
            .iter()
            .zip(&column_gaps)
            .map(|(col, &gap)| {
                let occ = if gap {
                    Occurrence::Optional
                } else {
                    Occurrence::One
                };
                ContentModel::Name(col.clone(), occ)
            })
            .collect();
        decls.push(ElementDecl::new(
            self.record_tag.clone(),
            ContentModel::Seq(parts, Occurrence::One),
        ));
        for col in &columns {
            decls.push(ElementDecl::new(col.clone(), ContentModel::Pcdata));
        }
        let dtd = Dtd::new(decls).map_err(|e| err(e.to_string()))?;
        Ok(SourceContents {
            dtd,
            listings,
            inferred: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsd_xml::write_element;

    #[test]
    fn rows_become_flat_listings() {
        let reader = CsvReader::new(
            "area,price,agent phone\n\
             \"Miami, FL\",\"$70,000\",305 1212\n\
             Kent WA,$55000,206 5555\n",
        );
        let contents = reader.read().expect("reads");
        assert_eq!(contents.listings.len(), 2);
        assert_eq!(
            write_element(&contents.listings[0]),
            "<record><area>Miami, FL</area><price>$70,000</price>\
             <agent_phone>305 1212</agent_phone></record>"
        );
        assert_eq!(contents.dtd.root_name().expect("rooted"), "record");
        assert_eq!(
            contents
                .dtd
                .decl("record")
                .expect("declared")
                .content
                .to_dtd_syntax(),
            "(area, price, agent_phone)"
        );
        for listing in &contents.listings {
            assert!(contents.dtd.validate(listing).is_ok());
        }
    }

    #[test]
    fn empty_cells_make_columns_optional() {
        let reader = CsvReader::new("a,b\n1,\n2,x\n");
        let contents = reader.read().expect("reads");
        assert_eq!(
            contents
                .dtd
                .decl("record")
                .expect("declared")
                .content
                .to_dtd_syntax(),
            "(a, b?)"
        );
        assert_eq!(
            write_element(&contents.listings[0]),
            "<record><a>1</a></record>"
        );
    }

    #[test]
    fn quotes_escape_delimiters_newlines_and_quotes() {
        let reader = CsvReader::new("note\n\"line one\nline \"\"two\"\", end\"\n");
        let contents = reader.read().expect("reads");
        assert_eq!(
            contents.listings[0]
                .child("note")
                .expect("note")
                .direct_text(),
            "line one\nline \"two\", end"
        );
    }

    #[test]
    fn record_tag_wraps_each_row() {
        let reader = CsvReader::new("a,b\n1,2\n").with_record_tag("row");
        let contents = reader.read().expect("reads");
        assert_eq!(
            write_element(&contents.listings[0]),
            "<row><a>1</a><b>2</b></row>"
        );
    }

    #[test]
    fn malformed_inputs_are_rejected_with_detail() {
        let cases = [
            ("", "header row"),
            ("a,b\n", "no data rows"),
            ("a,a\n1,2\n", "duplicate column"),
            ("a,b\n1,2,3\n", "row 2 has 3 fields"),
            ("a\n\"unterminated\n", "unterminated quoted field"),
            ("record\nx\n", "collides with the record tag"),
        ];
        for (input, expected) in cases {
            let e = CsvReader::new(input).read().expect_err(input);
            assert_eq!(e.format, SourceFormat::Csv);
            assert!(e.detail.contains(expected), "{input:?}: {e}");
        }
    }
}
