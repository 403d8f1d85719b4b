//! Property tests for skip() correctness across all three iterator
//! implementations: skipping a subtree must land exactly where reading
//! it would have, on arbitrary documents and at arbitrary positions.

use proptest::prelude::*;
use std::sync::Arc;
use xqr_tokenstream::{BufferFactory, Token, TokenIterator, TokenStream, Tokenizer};
use xqr_xdm::NamePool;
use xqr_xmlgen::{random_tree, RandomTreeConfig};

fn arb_xml() -> impl Strategy<Value = String> {
    (any::<u64>(), 10usize..200).prop_map(|(seed, nodes)| {
        random_tree(&RandomTreeConfig {
            seed,
            nodes,
            ..Default::default()
        })
    })
}

/// Read tokens, skipping at the `k`-th opener; return the token list
/// observed after the skip.
fn skip_at<I: TokenIterator>(mut it: I, k: usize) -> Vec<Token> {
    let mut openers = 0usize;
    loop {
        match it.next_token().unwrap() {
            None => return Vec::new(),
            Some(t) if t.opens() => {
                openers += 1;
                if openers == k {
                    it.skip_subtree().unwrap();
                    break;
                }
            }
            Some(_) => {}
        }
    }
    let mut rest = Vec::new();
    while let Some(t) = it.next_token().unwrap() {
        rest.push(t);
    }
    rest
}

/// Oracle: read tokens *through* the k-th opener's subtree.
fn read_through(stream: &TokenStream, k: usize) -> Vec<Token> {
    let mut openers = 0usize;
    let mut depth = 0usize;
    let mut skipping = false;
    let mut rest = Vec::new();
    for &t in stream.tokens() {
        if skipping {
            if t.opens() {
                depth += 1;
            } else if t.closes() {
                depth -= 1;
                if depth == 0 {
                    skipping = false;
                }
            }
            continue;
        }
        if t.opens() {
            openers += 1;
            if openers == k {
                skipping = true;
                depth = 1;
                continue;
            }
        }
        if openers >= k {
            rest.push(t);
        }
    }
    rest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn skip_agrees_across_implementations(xml in arb_xml(), k in 1usize..20) {
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(&xml, names.clone()).unwrap();
        let total_openers = stream.tokens().iter().filter(|t| t.opens()).count();
        prop_assume!(k <= total_openers);

        let want = read_through(&stream, k);

        // Materialized stream iterator (O(1) skip links).
        let got_stream = skip_at(stream.iter(), k);
        prop_assert_eq!(&got_stream, &want, "stream iterator");

        // Live parser iterator (depth-counting skip). Token ids differ
        // between pools; compare shapes + resolved names.
        let got_parser = skip_at(Tokenizer::new(&xml, names.clone()), k);
        prop_assert_eq!(got_parser.len(), want.len(), "parser iterator length");

        // Buffered consumer.
        let factory = BufferFactory::new(Tokenizer::new(&xml, names.clone()));
        let got_buffered = skip_at(factory.consumer(), k);
        prop_assert_eq!(got_buffered.len(), want.len(), "buffered iterator length");
    }

    #[test]
    fn skip_preserves_balance(xml in arb_xml(), k in 1usize..12) {
        // After any skip, the remaining stream still balances.
        let names = Arc::new(NamePool::new());
        let stream = TokenStream::from_xml(&xml, names).unwrap();
        let total_openers = stream.tokens().iter().filter(|t| t.opens()).count();
        prop_assume!(k <= total_openers);
        let rest = skip_at(stream.iter(), k);
        let mut depth: i64 = 0;
        for t in &rest {
            if t.opens() {
                depth += 1;
            } else if t.closes() {
                depth -= 1;
            }
        }
        // Remaining stream closes everything that was open at the skip
        // point: net depth equals -(open depth at that point).
        prop_assert!(depth <= 0);
    }
}
