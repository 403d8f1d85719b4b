//! Seeded inputs: everything the service sees is generated here or by
//! `xqr-xmlgen` from `--seed`. The same seed gives the same documents,
//! the same query texts and the same operation order.
//!
//! Operation mixes are drawn as shuffled blocks, not independent draws:
//! every block holds the exact mix, so two seeds differ in order but not
//! in how much of each kind of work a run holds. Independent draws would
//! move throughput by the square-root noise of the heavy operation's
//! count, which is seed noise, not a property of the program.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Derive an independent generator for one purpose (`stream` names it)
/// from the run's seed.
pub fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// An endless sequence of kinds `0..weights.len()`: each block of
/// `sum(weights)` draws holds kind `k` exactly `weights[k]` times, in
/// seeded order.
pub struct BlockMix {
    block: Vec<usize>,
    pos: usize,
    rng: StdRng,
}

impl BlockMix {
    pub fn new(weights: &[usize], rng: StdRng) -> BlockMix {
        let block: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(kind, &w)| std::iter::repeat_n(kind, w))
            .collect();
        let pos = block.len();
        BlockMix { block, pos, rng }
    }

    pub fn next_kind(&mut self) -> usize {
        if self.pos == self.block.len() {
            shuffle(&mut self.block, &mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

/// Zipf(1) over `n` ranks: rank `r` (from 0) has weight `1 / (r + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

const WORDS: &[&str] = &[
    "auction", "bid", "token", "stream", "query", "index", "label", "twig", "join", "parse",
    "lazy", "pool", "morsel", "ledger", "segment", "plan",
];

fn words(rng: &mut StdRng, n: usize, out: &mut String) {
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
}

/// Streamable subscriptions `/feed/item/f{i}` for `i` in this range.
pub const FEED_FIELDS: usize = 56;
/// Value-predicate subscriptions `/feed/item[v >= t]/id`, one per
/// threshold; they cannot stream and take the one-shot fallback.
pub const FEED_THRESHOLDS: [u32; 8] = [10, 20, 30, 40, 50, 60, 70, 80];

/// The standing queries of the two publish workloads, streamable first.
pub fn feed_subscriptions() -> Vec<String> {
    (0..FEED_FIELDS)
        .map(|i| format!("/feed/item/f{i}"))
        .chain(
            FEED_THRESHOLDS
                .iter()
                .map(|t| format!("/feed/item[v >= {t}]/id")),
        )
        .collect()
}

/// One `/feed/item` document and, by construction, what every standing
/// query of [`feed_subscriptions`] must return for it.
pub struct FeedDoc {
    pub xml: String,
    /// Serialized matches per subscription, in subscription order.
    pub expected: Vec<String>,
}

/// Generate a feed document of at least `target_bytes`. Every item
/// carries a seeded two thirds of the fields, so subscriptions match
/// different items and none matches nothing for long.
pub fn feed_doc(rng: &mut StdRng, target_bytes: usize) -> FeedDoc {
    let mut xml = String::with_capacity(target_bytes + 2048);
    let mut expected = vec![String::new(); FEED_FIELDS + FEED_THRESHOLDS.len()];
    xml.push_str("<feed>");
    let mut id = 0u32;
    while xml.len() < target_bytes {
        let v: u32 = rng.gen_range(0..100);
        let _ = write!(xml, "<item><id>{id}</id><v>{v}</v>");
        for (j, t) in FEED_THRESHOLDS.iter().enumerate() {
            if v >= *t {
                let _ = write!(expected[FEED_FIELDS + j], "<id>{id}</id>");
            }
        }
        for (i, slot) in expected.iter_mut().enumerate().take(FEED_FIELDS) {
            if rng.gen_range(0..3) == 0 {
                continue;
            }
            let start = xml.len();
            let _ = write!(xml, "<f{i}>");
            words(rng, 2, &mut xml);
            let _ = write!(xml, "</f{i}>");
            slot.push_str(&xml[start..]);
        }
        xml.push_str("</item>");
        id += 1;
    }
    xml.push_str("</feed>");
    FeedDoc { xml, expected }
}

/// Body of one catalog document (everything but the root start tag,
/// which carries the version stamp) and the number of entries whose
/// price is at least [`CATALOG_PRICE_FLOOR`].
pub struct CatalogBody {
    pub body: String,
    pub pricey: usize,
}

pub const CATALOG_PRICE_FLOOR: u32 = 900;

pub fn catalog_body(rng: &mut StdRng, target_bytes: usize) -> CatalogBody {
    let mut body = String::with_capacity(target_bytes + 512);
    let mut pricey = 0;
    let mut n = 0u32;
    while body.len() < target_bytes {
        let price: u32 = rng.gen_range(1..1000);
        if price >= CATALOG_PRICE_FLOOR {
            pricey += 1;
        }
        let _ = write!(
            body,
            "<entry id=\"e{n}\"><sku>sku-{}</sku><price>{price}</price><desc>",
            rng.gen_range(0..100_000u32)
        );
        words(rng, 8, &mut body);
        body.push_str("</desc></entry>");
        n += 1;
    }
    body.push_str("</catalog>");
    CatalogBody { body, pricey }
}

/// The full text of version `version` of a catalog document.
pub fn catalog_doc(version: u64, body: &str) -> String {
    let mut xml = String::with_capacity(body.len() + 40);
    let _ = write!(xml, "<catalog version=\"{version}\">");
    xml.push_str(body);
    xml
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mix_is_exact_per_block() {
        let mut mix = BlockMix::new(&[9, 9, 2], rng_for(1, 0));
        for _ in 0..5 {
            let mut seen = [0usize; 3];
            for _ in 0..20 {
                seen[mix.next_kind()] += 1;
            }
            assert_eq!(seen, [9, 9, 2]);
        }
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(32);
        let mut rng = rng_for(3, 0);
        let mut hits = [0usize; 32];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[7] && hits[7] > hits[31]);
        assert!(hits[31] > 0);
    }

    #[test]
    fn feed_doc_is_seeded_and_sized() {
        let a = feed_doc(&mut rng_for(5, 1), 32 * 1024);
        let b = feed_doc(&mut rng_for(5, 1), 32 * 1024);
        assert_eq!(a.xml, b.xml);
        assert!(a.xml.len() >= 32 * 1024 && a.xml.len() < 36 * 1024);
        assert_eq!(a.expected.len(), 64);
        assert!(a.expected.iter().all(|e| !e.is_empty()));
    }
}
