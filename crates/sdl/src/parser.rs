//! Recursive-descent parser for the paper's SDL surface syntax.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! segmentation := query ((';' | '\n') query)*
//! query        := '(' [pred (',' pred)*] ')'
//! pred         := ident ':' [constraint]
//! constraint   := '[' literal ',' literal (']' | '[')      -- range
//!               | '{' literal (',' literal)* '}'           -- set
//! literal      := quoted | bare token
//! ```
//!
//! Bare literals are typed by the schema of the relation being explored
//! (`date: [1550,1650]` parses its bounds as dates when `date` is a date
//! column); quoted literals (single quotes, `''` escape) are strings.

use crate::error::{SdlError, SdlResult};
use crate::predicate::{Constraint, Predicate};
use crate::query::Query;
use crate::segmentation::Segmentation;
use charles_store::{DataType, Schema, Value};

/// Parse a single SDL query against a schema.
pub fn parse_query(input: &str, schema: &Schema) -> SdlResult<Query> {
    let mut p = Parser::new(input, schema);
    let q = p.query()?;
    p.expect_end()?;
    Ok(q)
}

/// Parse a segmentation: queries separated by `;` or newlines.
pub fn parse_segmentation(input: &str, schema: &Schema) -> SdlResult<Segmentation> {
    let mut p = Parser::new(input, schema);
    let mut queries = vec![p.query()?];
    loop {
        p.skip_ws();
        match p.peek() {
            Some(';') | Some('\n') => {
                // A run of separators and blank lines counts as one.
                while matches!(
                    p.peek(),
                    Some(';') | Some('\n') | Some(' ') | Some('\t') | Some('\r')
                ) {
                    p.bump();
                }
                if p.peek().is_some() {
                    queries.push(p.query()?);
                }
            }
            None => break,
            Some(c) => {
                return Err(p.err(format!("expected ';' or end of input, found {c:?}")));
            }
        }
    }
    Ok(Segmentation::new(queries))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    schema: &'a Schema,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, schema: &'a Schema) -> Parser<'a> {
        Parser {
            input,
            pos: 0,
            schema,
        }
    }

    fn err(&self, message: String) -> SdlError {
        SdlError::Syntax {
            position: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skip spaces and tabs — but *not* newlines, which separate queries
    /// in segmentations.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t') | Some('\r')) {
            self.bump();
        }
    }

    fn skip_ws_and_newlines(&mut self) {
        while matches!(
            self.peek(),
            Some(' ') | Some('\t') | Some('\r') | Some('\n')
        ) {
            self.bump();
        }
    }

    fn expect(&mut self, c: char) -> SdlResult<()> {
        self.skip_ws();
        match self.peek() {
            Some(found) if found == c => {
                self.bump();
                Ok(())
            }
            Some(found) => Err(self.err(format!("expected {c:?}, found {found:?}"))),
            None => Err(self.err(format!("expected {c:?}, found end of input"))),
        }
    }

    fn expect_end(&mut self) -> SdlResult<()> {
        self.skip_ws_and_newlines();
        match self.peek() {
            None => Ok(()),
            Some(c) => Err(self.err(format!("trailing input starting at {c:?}"))),
        }
    }

    fn query(&mut self) -> SdlResult<Query> {
        self.skip_ws_and_newlines();
        self.expect('(')?;
        let mut predicates = Vec::new();
        self.skip_ws();
        if self.peek() == Some(')') {
            self.bump();
            return Ok(Query::conjunction(predicates));
        }
        loop {
            predicates.push(self.predicate()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(')') => break,
                Some(c) => return Err(self.err(format!("expected ',' or ')', found {c:?}"))),
                None => return Err(self.err("unterminated query".into())),
            }
        }
        // A repeated attribute is a legal conjunction (`a ∈ X ∧ a ∈ Y`),
        // not a syntax error: the static analyzer merges the conjuncts
        // per attribute or proves the conjunction empty, so admission
        // layers can answer with a semantic verdict instead of a parse
        // failure.
        Ok(Query::conjunction(predicates))
    }

    fn predicate(&mut self) -> SdlResult<Predicate> {
        self.skip_ws();
        let attr = self.ident()?;
        let ty = self
            .schema
            .type_of(attr)
            .map_err(|_| SdlError::UnknownAttribute {
                attr: attr.to_string(),
                position: self.pos,
            })?;
        self.expect(':')?;
        self.skip_ws();
        let constraint = match self.peek() {
            Some('[') => self.range(ty)?,
            Some('{') => self.set(ty)?,
            _ => Constraint::Any, // `attr:` followed by ',' or ')'
        };
        Ok(Predicate::new(attr, constraint))
    }

    /// The attribute name at the cursor, borrowed from the input: the
    /// predicate copies it once, into its shared name.
    fn ident(&mut self) -> SdlResult<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err("expected attribute name".into()))
        } else {
            Ok(&self.input[start..self.pos])
        }
    }

    fn range(&mut self, ty: DataType) -> SdlResult<Constraint> {
        self.expect('[')?;
        let lo = self.literal(ty)?;
        self.expect(',')?;
        let hi = self.literal(ty)?;
        self.skip_ws();
        match self.bump() {
            Some(']') => Constraint::range_with(lo, hi, true),
            Some('[') => Constraint::range_with(lo, hi, false),
            Some(c) => Err(self.err(format!("expected ']' or '[', found {c:?}"))),
            None => Err(self.err("unterminated range".into())),
        }
    }

    fn set(&mut self, ty: DataType) -> SdlResult<Constraint> {
        self.expect('{')?;
        let mut values = vec![self.literal(ty)?];
        loop {
            self.skip_ws();
            match self.bump() {
                Some(',') => values.push(self.literal(ty)?),
                Some('}') => break,
                Some(c) => return Err(self.err(format!("expected ',' or '}}', found {c:?}"))),
                None => return Err(self.err("unterminated set".into())),
            }
        }
        Constraint::set(values)
    }

    fn literal(&mut self, ty: DataType) -> SdlResult<Value> {
        self.skip_ws();
        match self.peek() {
            Some('\'') | Some('"') => {
                let quote = self.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(c) if c == quote => {
                            // Doubled quote = escaped quote character.
                            if self.peek() == Some(quote) {
                                self.bump();
                                s.push(quote);
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(self.err("unterminated string literal".into())),
                    }
                }
                Ok(Value::Str(s))
            }
            Some(_) => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | '+') {
                        // A '-' only continues the token if it is a sign or
                        // an infix (date/identifier) dash.
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("expected literal".into()));
                }
                let text = &self.input[start..self.pos];
                Value::parse_typed(text, ty)
                    .map_err(|e| self.err(format!("bad literal {text:?}: {e}")))
            }
            None => Err(self.err("expected literal, found end of input".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("date", DataType::Date),
            ("tonnage", DataType::Int),
            ("type", DataType::Str),
            ("score", DataType::Float),
            ("armed", DataType::Bool),
        ])
        .unwrap()
    }

    #[test]
    fn parses_paper_example() {
        let q = parse_query(
            "(date : [1550,1650], tonnage :, type : {'jacht', 'fluit'})",
            &schema(),
        )
        .unwrap();
        assert_eq!(q.attributes(), vec!["date", "tonnage", "type"]);
        assert_eq!(q.constrained_attributes(), vec!["date", "type"]);
        let c = q.constraint("type").unwrap();
        assert_eq!(
            c,
            &Constraint::Set(vec![Value::str("jacht"), Value::str("fluit")])
        );
    }

    #[test]
    fn bare_literals_typed_by_schema() {
        let q = parse_query("(tonnage: [1000,5000])", &schema()).unwrap();
        assert_eq!(
            q.constraint("tonnage").unwrap(),
            &Constraint::Range {
                lo: Value::Int(1000),
                hi: Value::Int(5000),
                hi_inclusive: true
            }
        );
        let q = parse_query("(date: [1550,1650])", &schema()).unwrap();
        assert!(matches!(
            q.constraint("date"),
            Some(Constraint::Range { .. })
        ));
        let q = parse_query("(score: [0.5, 2.5[)", &schema()).unwrap();
        assert_eq!(
            q.constraint("score").unwrap(),
            &Constraint::Range {
                lo: Value::Float(0.5),
                hi: Value::Float(2.5),
                hi_inclusive: false
            }
        );
    }

    #[test]
    fn half_open_int_range_normalises() {
        let q = parse_query("(tonnage: [1000,1151[)", &schema()).unwrap();
        assert_eq!(
            q.constraint("tonnage").unwrap(),
            &Constraint::Range {
                lo: Value::Int(1000),
                hi: Value::Int(1150),
                hi_inclusive: true
            }
        );
    }

    #[test]
    fn empty_and_wildcard_queries() {
        let q = parse_query("()", &schema()).unwrap();
        assert!(q.attributes().is_empty());
        let q = parse_query("(tonnage:, type:)", &schema()).unwrap();
        assert_eq!(q.constraint_count(), 0);
        assert_eq!(q.attributes().len(), 2);
    }

    #[test]
    fn bool_and_date_literals() {
        let q = parse_query("(armed: {true})", &schema()).unwrap();
        assert_eq!(
            q.constraint("armed").unwrap(),
            &Constraint::Set(vec![Value::Bool(true)])
        );
        let q = parse_query("(date: [1744-03-07, 1780-12-31])", &schema()).unwrap();
        assert!(q.constraint("date").is_some());
    }

    #[test]
    fn quoted_strings_with_escapes() {
        let q = parse_query("(type: {'de, lange', 'o''neill'})", &schema()).unwrap();
        assert_eq!(
            q.constraint("type").unwrap(),
            &Constraint::Set(vec![Value::str("de, lange"), Value::str("o'neill")])
        );
    }

    #[test]
    fn error_cases_carry_position() {
        for bad in [
            "tonnage: [1,2]",        // missing parens
            "(tonnage [1,2])",       // missing colon
            "(unknown: [1,2])",      // unknown attribute
            "(tonnage: [1,2)",       // unterminated range
            "(tonnage: {1,2)",       // unterminated set
            "(tonnage: [xyz,2])",    // bad literal for int column
            "(tonnage: [1,2]) junk", // trailing input
            "(tonnage: [5,1])",      // inverted range
            "(type: {})",            // empty set
            "(tonnage: [1,2],)",     // dangling comma
        ] {
            let e = parse_query(bad, &schema());
            assert!(e.is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn duplicate_attributes_parse_as_conjunction() {
        // Repeated attributes are structurally legal (AND semantics);
        // the static analyzer decides whether they merge or contradict.
        let q = parse_query("(tonnage: [0,100], tonnage: [50,200])", &schema()).unwrap();
        assert!(q.has_repeated_attributes());
        assert_eq!(q.predicates().len(), 2);
        assert!(q.matches_row(|_| Some(Value::Int(75))));
        assert!(!q.matches_row(|_| Some(Value::Int(10))));
    }

    #[test]
    fn unknown_attribute_gets_a_dedicated_error() {
        match parse_query("(nope: [1,2])", &schema()) {
            Err(SdlError::UnknownAttribute { attr, .. }) => assert_eq!(attr, "nope"),
            other => panic!("expected UnknownAttribute, got {other:?}"),
        }
    }

    #[test]
    fn segmentation_parsing() {
        let s = parse_segmentation(
            "(type: {jacht}); (type: {fluit})\n(type: {pinas})",
            &schema(),
        )
        .unwrap();
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn segmentation_tolerates_trailing_separator() {
        let s = parse_segmentation("(type: {jacht});\n", &schema()).unwrap();
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn display_parse_round_trip() {
        let inputs = [
            "(date: [1550-01-01,1650-01-01], tonnage: , type: {jacht, fluit})",
            "(tonnage: [1000,1150])",
            "(score: [0.5,2.5[)",
            "(type: {'de, lange'})",
            "(armed: {true, false})",
        ];
        let schema = schema();
        for input in inputs {
            let q = parse_query(input, &schema).unwrap();
            let printed = q.to_string();
            let q2 = parse_query(&printed, &schema).unwrap();
            assert_eq!(q, q2, "round trip failed for {input:?} → {printed:?}");
        }
    }
}
