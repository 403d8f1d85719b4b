//! The built-in function signatures the compiler accepts — the engine's
//! "F&O" library contract. The runtime crate implements every entry;
//! its tests assert the two lists stay in sync.

/// (local name in the `fn:` namespace, min arity, max arity).
pub const BUILTINS: &[(&str, usize, usize)] = &[
    // Accessors & context.
    ("string", 0, 1),
    ("data", 1, 1),
    ("node-name", 1, 1),
    ("local-name", 0, 1),
    ("name", 0, 1),
    ("namespace-uri", 0, 1),
    ("root", 0, 1),
    ("base-uri", 0, 1),
    ("document-uri", 1, 1),
    ("position", 0, 0),
    ("last", 0, 0),
    // Documents.
    ("doc", 1, 1),
    ("document", 1, 1), // the talk's spelling
    ("collection", 0, 1),
    // Sequences.
    ("empty", 1, 1),
    ("exists", 1, 1),
    ("count", 1, 1),
    ("distinct-values", 1, 1),
    ("distinct-nodes", 1, 1),
    ("reverse", 1, 1),
    ("subsequence", 2, 3),
    ("insert-before", 3, 3),
    ("remove", 2, 2),
    ("index-of", 2, 2),
    ("zero-or-one", 1, 1),
    ("one-or-more", 1, 1),
    ("exactly-one", 1, 1),
    ("unordered", 1, 1),
    ("deep-equal", 2, 2),
    // Aggregates.
    ("sum", 1, 2),
    ("avg", 1, 1),
    ("min", 1, 1),
    ("max", 1, 1),
    // Booleans.
    ("boolean", 1, 1),
    ("not", 1, 1),
    ("true", 0, 0),
    ("false", 0, 0),
    // Numbers.
    ("number", 0, 1),
    ("abs", 1, 1),
    ("ceiling", 1, 1),
    ("floor", 1, 1),
    ("round", 1, 1),
    ("round-half-to-even", 1, 2),
    // Strings.
    ("concat", 2, 64),
    ("string-join", 2, 2),
    ("string-length", 0, 1),
    ("substring", 2, 3),
    ("upper-case", 1, 1),
    ("lower-case", 1, 1),
    ("contains", 2, 2),
    ("starts-with", 2, 2),
    ("ends-with", 2, 2),
    ("substring-before", 2, 2),
    ("substring-after", 2, 2),
    ("normalize-space", 0, 1),
    ("translate", 3, 3),
    ("tokenize", 2, 2),
    ("matches", 2, 2),
    ("replace", 3, 3),
    ("string-to-codepoints", 1, 1),
    ("codepoints-to-string", 1, 1),
    ("compare", 2, 2),
    // Dates.
    ("current-dateTime", 0, 0),
    ("current-date", 0, 0),
    ("current-time", 0, 0),
    ("implicit-timezone", 0, 0),
    ("year-from-date", 1, 1),
    ("month-from-date", 1, 1),
    ("day-from-date", 1, 1),
    ("year-from-dateTime", 1, 1),
    ("month-from-dateTime", 1, 1),
    ("day-from-dateTime", 1, 1),
    ("hours-from-dateTime", 1, 1),
    ("minutes-from-dateTime", 1, 1),
    ("seconds-from-dateTime", 1, 1),
    ("add-date", 2, 2), // the talk's sampler lists it
    ("years-from-duration", 1, 1),
    ("months-from-duration", 1, 1),
    ("days-from-duration", 1, 1),
    ("hours-from-duration", 1, 1),
    ("minutes-from-duration", 1, 1),
    ("seconds-from-duration", 1, 1),
    // Errors & debugging.
    ("error", 0, 2),
    ("trace", 2, 2),
];

/// Is `(local, arity)` a known built-in in the `fn:` namespace?
pub(crate) fn is_builtin(local: &str, arity: usize) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|(n, lo, hi)| *n == local && (*lo..=*hi).contains(&arity))
        .map(|(n, _, _)| *n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_respects_arity() {
        assert_eq!(is_builtin("count", 1), Some("count"));
        assert_eq!(is_builtin("count", 2), None);
        assert_eq!(is_builtin("substring", 2), Some("substring"));
        assert_eq!(is_builtin("substring", 3), Some("substring"));
        assert_eq!(is_builtin("substring", 4), None);
        assert_eq!(is_builtin("nonsense", 1), None);
    }

    #[test]
    fn no_duplicate_names() {
        let mut names: Vec<&str> = BUILTINS.iter().map(|(n, _, _)| *n).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
