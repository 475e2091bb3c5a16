//! Plain-text instance format, so instances can be saved, diffed and shared
//! (a DIMACS-flavoured format):
//!
//! ```text
//! c optional comment lines
//! p setcover <n> <m>
//! s <e1> <e2> …        # one line per set, m lines, elements in [0, n)
//! ```
//!
//! Empty sets are written as a bare `s`.
//!
//! The parser is strict: element ids must lie in `[0, n)` and appear at
//! most once per set line — duplicates and out-of-range ids are input
//! corruption and get a positioned error, never silent canonicalization.

use crate::system::SetSystem;
use std::fmt::Write as _;

/// Parse errors for the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Missing or malformed `p setcover n m` header.
    BadHeader(String),
    /// A set line failed to parse.
    BadSetLine {
        /// 1-based line number.
        line: usize,
        /// Description.
        reason: String,
    },
    /// A set line listed the same element twice.
    DuplicateElement {
        /// 1-based line number.
        line: usize,
        /// The repeated element.
        element: usize,
    },
    /// Number of set lines didn't match the header's `m`.
    WrongSetCount {
        /// Header's promise.
        expected: usize,
        /// Lines found.
        found: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header: {s}"),
            ParseError::BadSetLine { line, reason } => {
                write!(f, "bad set line {line}: {reason}")
            }
            ParseError::DuplicateElement { line, element } => {
                write!(f, "bad set line {line}: duplicate element {element}")
            }
            ParseError::WrongSetCount { expected, found } => {
                write!(f, "expected {expected} sets, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a system to the text format.
pub fn write_instance(sys: &SetSystem) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "p setcover {} {}", sys.universe(), sys.len());
    for (_, s) in sys.iter() {
        out.push('s');
        for e in s.iter() {
            let _ = write!(out, " {e}");
        }
        out.push('\n');
    }
    out
}

/// Parses the text format back into a system.
///
/// Line endings may be `\n` or `\r\n` (instances written on Windows or
/// shipped through a CRLF-normalizing transport parse identically). The
/// trailing `\r` is stripped explicitly so CRLF tolerance is a stated
/// contract of the splitter rather than an incidental effect of
/// tokenization, and the roundtrip tests pin it. Error positions count
/// physical lines either way.
pub fn read_instance(text: &str) -> Result<SetSystem, ParseError> {
    let mut lines = text
        .split('\n')
        .enumerate()
        .map(|(i, l)| (i + 1, l.strip_suffix('\r').unwrap_or(l).trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('c'));

    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseError::BadHeader("empty input".into()))?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("p") || parts.next() != Some("setcover") {
        return Err(ParseError::BadHeader(header.into()));
    }
    let n: usize = parts
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    let m: usize = parts
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.into()))?;
    if parts.next().is_some() {
        return Err(ParseError::BadHeader(format!(
            "trailing tokens in: {header}"
        )));
    }
    // Elements are stored as `u32`, so a universe past `2^32` cannot be
    // represented: its larger ids would truncate.
    if n as u64 > 1 << 32 {
        return Err(ParseError::BadHeader(format!(
            "universe {n} exceeds 2^32 in: {header}"
        )));
    }

    let mut sys = SetSystem::new(n);
    let mut count = 0usize;
    for (lineno, line) in lines {
        let mut toks = line.split_whitespace();
        if toks.next() != Some("s") {
            return Err(ParseError::BadSetLine {
                line: lineno,
                reason: format!("expected 's', got: {line}"),
            });
        }
        let mut elems: Vec<u32> = Vec::new();
        for tok in toks {
            let e: usize = tok.parse().map_err(|_| ParseError::BadSetLine {
                line: lineno,
                reason: format!("non-integer element: {tok}"),
            })?;
            if e >= n {
                return Err(ParseError::BadSetLine {
                    line: lineno,
                    reason: format!("element {e} out of universe [{n}]"),
                });
            }
            elems.push(e as u32);
        }
        elems.sort_unstable();
        if let Some(w) = elems.windows(2).find(|w| w[0] == w[1]) {
            return Err(ParseError::DuplicateElement {
                line: lineno,
                element: w[0] as usize,
            });
        }
        sys.push_sorted(&elems);
        count += 1;
    }
    if count != m {
        return Err(ParseError::WrongSetCount {
            expected: m,
            found: count,
        });
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SetSystem {
        SetSystem::from_elements(6, &[vec![0, 1, 2], vec![], vec![3, 4, 5]])
    }

    #[test]
    fn roundtrip() {
        let sys = demo();
        let text = write_instance(&sys);
        assert!(text.starts_with("p setcover 6 3\n"));
        let back = read_instance(&text).unwrap();
        assert_eq!(back, sys);
    }

    #[test]
    fn crlf_roundtrip() {
        // A CRLF rendering of the canonical output parses to the same
        // system, and the trailing `\r` never becomes part of a token.
        let sys = demo();
        let crlf = write_instance(&sys).replace('\n', "\r\n");
        assert_eq!(read_instance(&crlf).unwrap(), sys);
        // Explicit regression: the last element of a set line followed by
        // `\r\n` must parse as that element, not as `element\r`.
        let text = "p setcover 4 2\r\ns 0 1\r\ns 2 3\r\n";
        let parsed = read_instance(text).unwrap();
        assert_eq!(parsed.set(0).to_vec(), vec![0, 1]);
        assert_eq!(parsed.set(1).to_vec(), vec![2, 3]);
        // Error positions still count physical lines under CRLF.
        let err = read_instance("p setcover 3 1\r\ns 9\r\n").unwrap_err();
        assert!(
            matches!(err, ParseError::BadSetLine { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "c hello\n\np setcover 4 2\nc mid\ns 0 1\n\ns 2 3\n";
        let sys = read_instance(text).unwrap();
        assert_eq!(sys.len(), 2);
        assert_eq!(sys.set(1).to_vec(), vec![2, 3]);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(read_instance(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            read_instance("p wrong 3 1\ns 0\n"),
            Err(ParseError::BadHeader(_))
        ));
        assert!(matches!(
            read_instance("p setcover 3 1\nx 0\n"),
            Err(ParseError::BadSetLine { line: 2, .. })
        ));
        assert!(matches!(
            read_instance("p setcover 3 1\ns 5\n"),
            Err(ParseError::BadSetLine { .. })
        ));
        assert!(matches!(
            read_instance("p setcover 3 2\ns 0\n"),
            Err(ParseError::WrongSetCount {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            read_instance("p setcover 3 1 junk\ns 0\n"),
            Err(ParseError::BadHeader(_))
        ));
    }

    #[test]
    fn universe_past_u32_is_a_bad_header() {
        // Element 2^32 + 5 would truncate to 5 if the header were accepted.
        for set_line in ["s 4294967301", "s 5 4294967301"] {
            let text = format!("p setcover 8589934592 1\n{set_line}\n");
            assert!(
                matches!(read_instance(&text), Err(ParseError::BadHeader(_))),
                "{set_line}"
            );
        }
        // 2^32 itself fits: its largest id is u32::MAX.
        let sys = read_instance("p setcover 4294967296 1\ns 5 4294967295\n").unwrap();
        assert_eq!(sys.set(0).to_vec(), vec![5, 4294967295]);
    }

    #[test]
    fn duplicate_elements_are_rejected() {
        let err = read_instance("p setcover 8 1\ns 3 1 3\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::DuplicateElement {
                line: 2,
                element: 3
            }
        );
        assert!(err.to_string().contains("duplicate element 3"), "{err}");
        // Duplicates on a later line carry that line's number.
        let err2 = read_instance("p setcover 8 2\ns 0\ns 5 5\n").unwrap_err();
        assert!(matches!(
            err2,
            ParseError::DuplicateElement {
                line: 3,
                element: 5
            }
        ));
    }

    fn arb_system() -> impl proptest::Strategy<Value = SetSystem> {
        use proptest::prelude::*;
        (1usize..40, 0usize..12).prop_flat_map(|(n, m)| {
            proptest::collection::vec(proptest::collection::vec(0usize..n, 0..n), m)
                .prop_map(move |lists| SetSystem::from_elements(n, &lists))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        #[test]
        fn write_then_parse_roundtrips_random_systems(sys in arb_system()) {
            let text = write_instance(&sys);
            let back = match read_instance(&text) {
                Ok(b) => b,
                Err(e) => return Err(proptest::TestCaseError::fail(format!(
                    "canonical output failed to parse: {e}"
                ))),
            };
            proptest::prop_assert_eq!(&back, &sys);
            // The canonical writer never emits duplicates, so a second
            // roundtrip is byte-identical.
            proptest::prop_assert_eq!(write_instance(&back), text.clone());
            // CRLF rendering parses to the same system.
            let crlf = text.replace('\n', "\r\n");
            match read_instance(&crlf) {
                Ok(b) => proptest::prop_assert_eq!(&b, &sys),
                Err(e) => return Err(proptest::TestCaseError::fail(format!(
                    "CRLF rendering failed to parse: {e}"
                ))),
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = read_instance("p setcover 3 1\ns 9\n").unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("line 2") && msg.contains("out of universe"),
            "{msg}"
        );
    }

    #[test]
    fn empty_instance() {
        let sys = SetSystem::new(0);
        let back = read_instance(&write_instance(&sys)).unwrap();
        assert_eq!(back.universe(), 0);
        assert_eq!(back.len(), 0);
    }
}
