//! The oracle contract, stated once: **same value or same error**.
//!
//! Every leg of the harness runs something twice — a reference and the
//! configuration under test — and asks whether the second run is a
//! legal outcome given the first. A query is a partial function from
//! documents to values, and it is well-defined on an input exactly when
//! every way of evaluating it gives the same value or the same error
//! (Van den Bussche et al., PAPERS.md); [`judge`] is that statement,
//! with the three relaxations the legs need spelled out as
//! [`Contract`]s instead of re-derived per leg.

use xqr_xdm::{Error, ErrorCode};

/// How one run ended: the serialized result, or the stable error code
/// plus the message (kept for reports; never compared).
pub type Outcome = Result<String, (ErrorCode, String)>;

pub fn outcome(r: Result<String, Error>) -> Outcome {
    r.map_err(|e| (e.code, e.to_string()))
}

/// Is this a resource verdict (deadline, budget, cancellation, shedding,
/// a transient fault) rather than a semantic outcome? Those depend on
/// timing, so a run ending in one is not comparable.
pub fn is_resource(code: ErrorCode) -> bool {
    matches!(
        code,
        ErrorCode::Limit
            | ErrorCode::Timeout
            | ErrorCode::Cancelled
            | ErrorCode::Overloaded
            | ErrorCode::Unavailable
    )
}

/// What the run under test is allowed to do relative to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Same configuration, no faults: the same value or the same error
    /// code (standing subscription vs one-shot, chunked vs whole).
    Strict,
    /// A differently optimized configuration, no faults: rewrites may
    /// *avoid* an error (lazy logic, dead code) and may reorder which of
    /// several pending errors fires, but never introduce one and never
    /// change a value.
    Optimizer,
    /// The same configuration under an installed fault schedule:
    /// correct, or any stable coded error. `err:XQRL0000` is a legal
    /// ending only when the schedule injects panics (a contained panic
    /// carries that code).
    Faulted { panics_scheduled: bool },
}

/// [`judge`]'s answer for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The same value, byte for byte.
    Agree,
    /// A legal error ending, with the code it ended in.
    Coded(ErrorCode),
    /// A resource verdict on one side: timing-dependent, not comparable.
    Skipped,
    /// The contract is broken; the text says how.
    Violation(String),
}

/// An invariant violation — every leg's only failure mode.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Where: a leg name, `sub 2 doc 0`, `store`, …
    pub at: String,
    pub detail: String,
}

impl Violation {
    pub fn new(at: impl Into<String>, detail: impl Into<String>) -> Violation {
        Violation {
            at: at.into(),
            detail: detail.into(),
        }
    }
}

/// Hold `actual` to `contract` against the un-faulted `reference`.
pub fn judge(contract: Contract, reference: &Outcome, actual: &Outcome) -> Verdict {
    use Verdict::{Agree, Coded, Skipped};
    let faulted = matches!(contract, Contract::Faulted { .. });
    // XQRL0000 is the engine saying "bug" — a contained panic, a broken
    // invariant. It is never a legitimate outcome, except as the
    // contained form of a panic the schedule itself injected.
    let panic_scheduled = matches!(
        contract,
        Contract::Faulted {
            panics_scheduled: true
        }
    );
    for (side, o, excused) in [
        ("reference", reference, false),
        ("run", actual, panic_scheduled),
    ] {
        if let Err((ErrorCode::Internal, msg)) = o {
            if !excused {
                return Verdict::Violation(format!(
                    "err:XQRL0000 in the {side} without a scheduled panic — engine bug: {msg}"
                ));
            }
        }
    }
    match (reference, actual) {
        (Ok(want), Ok(got)) if want == got => Agree,
        (Ok(want), Ok(got)) => {
            Verdict::Violation(format!("wrong answer: want {want:?}, got {got:?}"))
        }
        (Err((code, _)), Ok(_)) if is_resource(*code) => Skipped,
        // The optimizer legally avoided the error; anything else running
        // the same configuration can only add failures, never lose one.
        (Err((code, _)), Ok(_)) if contract == Contract::Optimizer => Coded(*code),
        (Err((code, _)), Ok(got)) => Verdict::Violation(format!(
            "the reference failed deterministically with {} but the run succeeded with {got:?}",
            code.as_str()
        )),
        // Under injection any stable coded error is a legal ending.
        (_, Err((code, _))) if faulted => Coded(*code),
        (Err((want, _)), Err((code, _))) if is_resource(*want) || is_resource(*code) => Skipped,
        (Ok(_), Err((code, _))) if is_resource(*code) => Skipped,
        (Err((want, _)), Err((code, _))) if want == code || contract == Contract::Optimizer => {
            Coded(*want)
        }
        (reference, Err((code, msg))) => Verdict::Violation(format!(
            "the run failed with {} ({msg}) where the reference ended {reference:?}",
            code.as_str()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Contract::*;

    fn ok(s: &str) -> Outcome {
        Ok(s.into())
    }
    fn err(code: ErrorCode) -> Outcome {
        Err((code, "message, never compared".into()))
    }
    fn violated(c: Contract, r: &Outcome, a: &Outcome) -> bool {
        matches!(judge(c, r, a), Verdict::Violation(_))
    }

    const ALL: [Contract; 4] = [
        Strict,
        Optimizer,
        Faulted {
            panics_scheduled: false,
        },
        Faulted {
            panics_scheduled: true,
        },
    ];

    #[test]
    fn same_value_agrees_and_a_different_value_never_does() {
        for c in ALL {
            assert_eq!(judge(c, &ok("4"), &ok("4")), Verdict::Agree);
            assert!(violated(c, &ok("4"), &ok("-4")), "{c:?}");
        }
    }

    #[test]
    fn resource_verdicts_are_not_comparable() {
        for c in ALL {
            assert_eq!(
                judge(c, &err(ErrorCode::Timeout), &ok("1")),
                Verdict::Skipped
            );
        }
        for c in [Strict, Optimizer] {
            assert_eq!(judge(c, &ok("1"), &err(ErrorCode::Limit)), Verdict::Skipped);
            assert_eq!(
                judge(
                    c,
                    &err(ErrorCode::DivisionByZero),
                    &err(ErrorCode::Overloaded)
                ),
                Verdict::Skipped
            );
        }
    }

    #[test]
    fn only_the_optimizer_may_avoid_or_swap_an_error() {
        let (div, ty) = (err(ErrorCode::DivisionByZero), err(ErrorCode::Type));
        assert_eq!(
            judge(Optimizer, &div, &ok("1")),
            Verdict::Coded(ErrorCode::DivisionByZero)
        );
        assert_eq!(
            judge(Optimizer, &div, &ty),
            Verdict::Coded(ErrorCode::DivisionByZero)
        );
        assert!(violated(Optimizer, &ok("1"), &div), "introduced an error");
        assert_eq!(
            judge(Strict, &div, &div),
            Verdict::Coded(ErrorCode::DivisionByZero)
        );
        assert!(violated(Strict, &div, &ty));
        for c in [Strict, ALL[2], ALL[3]] {
            assert!(
                violated(c, &div, &ok("1")),
                "{c:?} erased a deterministic error"
            );
        }
    }

    #[test]
    fn injection_may_end_in_any_code_but_internal_needs_a_scheduled_panic() {
        let unavailable = err(ErrorCode::Unavailable);
        for c in [ALL[2], ALL[3]] {
            assert_eq!(
                judge(c, &ok("1"), &unavailable),
                Verdict::Coded(ErrorCode::Unavailable)
            );
        }
        let internal = err(ErrorCode::Internal);
        assert_eq!(
            judge(ALL[3], &ok("1"), &internal),
            Verdict::Coded(ErrorCode::Internal)
        );
        for c in [Strict, Optimizer, ALL[2]] {
            assert!(violated(c, &ok("1"), &internal), "{c:?}");
        }
        // The reference is never faulted: Internal there is always a bug.
        for c in ALL {
            assert!(violated(c, &internal, &internal), "{c:?}");
        }
    }
}
