//! Pluggable text-layout strategies for the linker.
//!
//! The paper's Table 1 attributes part of flattening's win to better
//! I-cache behaviour — *where* the linker puts code determines which hot
//! functions evict each other from the direct-mapped cache. Historically
//! [`crate::ld`] placed functions in input order, which is arbitrary with
//! respect to the dynamic call graph. This module makes placement a
//! strategy on [`crate::LinkOptions`]:
//!
//! * [`Layout::InputOrder`] — the default; reproduces the historical
//!   placement byte-for-byte.
//! * [`Layout::ProfileGuided`] — Pettis–Hansen-style call-graph ordering
//!   driven by a [`LayoutProfile`]: hot caller/callee pairs are greedily
//!   clustered into chains (so they share cache lines and never conflict),
//!   and functions the profile never saw execute are pushed to a cold tail
//!   after all hot code.
//!
//! A layout strategy only permutes *placement order*; it never changes
//! which functions are linked, their bodies, or their sizes, so a relinked
//! image is semantically identical — only fetch behaviour (and the
//! absolute addresses embedded by `Instr::Addr` and data relocations)
//! differs.

use std::collections::BTreeMap;

/// A weighted dynamic call graph, keyed by link-level function names.
///
/// This is the layout-relevant projection of an execution profile: how
/// often each (caller, callee) pair was observed, and how many
/// instructions each function executed. The `machine` crate's profiler
/// produces one via `Profile::layout_profile`; anything able to name
/// functions and weight edges can drive layout the same way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutProfile {
    /// `(caller, callee)` → number of observed calls (direct + indirect).
    pub edges: BTreeMap<(String, String), u64>,
    /// Function name → instructions executed. A function absent from this
    /// map (or mapped to zero) is considered cold.
    pub func_counts: BTreeMap<String, u64>,
}

impl LayoutProfile {
    /// True when the profile carries no signal at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.func_counts.is_empty()
    }

    /// Add `count` observations of `caller` → `callee`.
    pub fn record_edge(
        &mut self,
        caller: impl Into<String>,
        callee: impl Into<String>,
        count: u64,
    ) {
        *self.edges.entry((caller.into(), callee.into())).or_insert(0) += count;
    }

    /// Add `count` executed instructions to `name`.
    pub fn record_func(&mut self, name: impl Into<String>, count: u64) {
        *self.func_counts.entry(name.into()).or_insert(0) += count;
    }

    /// Stable FNV-1a content hash, independent of construction order
    /// (both maps iterate sorted). Used to fold the profile into build
    /// fingerprints.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for ((caller, callee), n) in &self.edges {
            eat(b"e");
            eat(caller.as_bytes());
            eat(b"\0");
            eat(callee.as_bytes());
            eat(b"\0");
            eat(&n.to_le_bytes());
        }
        for (name, n) in &self.func_counts {
            eat(b"f");
            eat(name.as_bytes());
            eat(b"\0");
            eat(&n.to_le_bytes());
        }
        h
    }
}

/// Placement metadata for one function awaiting layout.
#[derive(Debug, Clone, Copy)]
pub struct FuncMeta<'a> {
    /// Link-level symbol name (not necessarily unique: `static` functions
    /// from different objects may share one).
    pub name: &'a str,
    /// Encoded size in bytes.
    pub size: u64,
}

/// Text-placement strategy for [`crate::LinkOptions`].
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Layout {
    /// Place functions in linker input order (the historical behaviour;
    /// byte-for-byte identical images to every pre-strategy release).
    #[default]
    InputOrder,
    /// Pettis–Hansen-style placement driven by a profile: hot chains
    /// first, never-executed functions in a cold tail.
    ProfileGuided(LayoutProfile),
}

impl Layout {
    /// Compute the placement order as a permutation of `0..funcs.len()`
    /// (indices into `funcs`, which is in linker input order).
    ///
    /// The result is deterministic for a given `(strategy, funcs)` pair:
    /// all tie-breaks fall back to input order.
    pub fn order(&self, funcs: &[FuncMeta<'_>]) -> Vec<usize> {
        match self {
            Layout::InputOrder => (0..funcs.len()).collect(),
            Layout::ProfileGuided(profile) => {
                if profile.is_empty() {
                    (0..funcs.len()).collect()
                } else {
                    profile_guided_order(profile, funcs)
                }
            }
        }
    }
}

/// Pettis–Hansen-style greedy call-graph clustering.
///
/// 1. Split functions into *hot* (executed per the profile) and *cold*.
/// 2. Give every hot function its own chain; process call edges in
///    decreasing weight order, concatenating the caller's chain with the
///    callee's chain whenever they differ — the hottest pairs end up
///    adjacent, cooler pairs at least nearby.
/// 3. Emit chains by decreasing heat (total instruction count), then the
///    cold functions in input order.
fn profile_guided_order(profile: &LayoutProfile, funcs: &[FuncMeta<'_>]) -> Vec<usize> {
    let n = funcs.len();

    // Map names to function indices. Names are not guaranteed unique
    // (static functions keep their names across objects); an ambiguous
    // name cannot be attributed to a single placement slot, so edges
    // naming it are skipped for clustering. Hotness still applies to
    // every same-named copy — over-approximating hot keeps semantics
    // conservative.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in funcs.iter().enumerate() {
        by_name.entry(f.name).or_default().push(i);
    }

    let name_is_hot = |name: &str| -> bool {
        if profile.func_counts.get(name).copied().unwrap_or(0) > 0 {
            return true;
        }
        // A function can appear only as an edge endpoint (e.g. profiles
        // built from edge data alone); treat that as executed too.
        profile
            .edges
            .iter()
            .any(|((caller, callee), &w)| w > 0 && (caller == name || callee == name))
    };
    let hot: Vec<bool> = funcs.iter().map(|f| name_is_hot(f.name)).collect();

    // Union-find-free chain bookkeeping: chain id per function, chains as
    // ordered vectors. Only hot functions participate.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();

    // Deterministic edge ordering: weight desc, then names, and only
    // edges whose two endpoints map to unique hot slots.
    let mut edges: Vec<(u64, usize, usize)> = Vec::new();
    for ((caller, callee), &w) in &profile.edges {
        if w == 0 || caller == callee {
            continue;
        }
        let (Some(cs), Some(ds)) = (by_name.get(caller.as_str()), by_name.get(callee.as_str()))
        else {
            continue;
        };
        if cs.len() != 1 || ds.len() != 1 {
            continue;
        }
        let (a, b) = (cs[0], ds[0]);
        if a != b && hot[a] && hot[b] {
            edges.push((w, a, b));
        }
    }
    // BTreeMap iteration already sorted by name; sort_by is stable, so
    // equal weights keep name order.
    edges.sort_by_key(|e| std::cmp::Reverse(e.0));

    for (_, a, b) in edges {
        let (ca, cb) = (chain_of[a], chain_of[b]);
        if ca == cb {
            continue;
        }
        // Caller chain first, callee chain appended: the call fall-through
        // direction, keeping the pair as close as current chains allow.
        let moved = std::mem::take(&mut chains[cb]);
        for &f in &moved {
            chain_of[f] = ca;
        }
        chains[ca].extend(moved);
    }

    // Heat of a chain: total executed instructions (ambiguous names
    // contribute their shared count to each copy — only relative order
    // matters). Tie-break on first member's input position.
    let heat = |chain: &[usize]| -> u64 {
        chain.iter().map(|&i| profile.func_counts.get(funcs[i].name).copied().unwrap_or(0)).sum()
    };
    let mut hot_chains: Vec<&Vec<usize>> =
        chains.iter().filter(|c| !c.is_empty() && hot[c[0]]).collect();
    hot_chains.sort_by_key(|c| (std::cmp::Reverse(heat(c)), c[0]));

    let mut order: Vec<usize> = Vec::with_capacity(n);
    for chain in hot_chains {
        order.extend(chain.iter().copied());
    }
    // Cold tail, in input order.
    order.extend((0..n).filter(|&i| !hot[i]));
    debug_assert_eq!(order.len(), n);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metas<'a>(names: &[&'a str]) -> Vec<FuncMeta<'a>> {
        names.iter().map(|n| FuncMeta { name: n, size: 8 }).collect()
    }

    #[test]
    fn input_order_is_identity() {
        let fs = metas(&["c", "a", "b"]);
        assert_eq!(Layout::InputOrder.order(&fs), vec![0, 1, 2]);
    }

    #[test]
    fn empty_profile_is_identity() {
        let fs = metas(&["a", "b"]);
        assert_eq!(Layout::ProfileGuided(LayoutProfile::default()).order(&fs), vec![0, 1]);
    }

    #[test]
    fn hot_pairs_cluster_and_cold_goes_last() {
        // Input order: hot0 cold0 hot1 cold1; hot0 calls hot1 a lot.
        let fs = metas(&["hot0", "cold0", "hot1", "cold1"]);
        let mut p = LayoutProfile::default();
        p.record_edge("hot0", "hot1", 1000);
        p.record_func("hot0", 500);
        p.record_func("hot1", 700);
        let order = Layout::ProfileGuided(p).order(&fs);
        assert_eq!(order, vec![0, 2, 1, 3], "caller/callee adjacent, cold tail in input order");
    }

    #[test]
    fn heavier_edges_win_adjacency() {
        // a calls b (10) and c (1000): c should be placed right after a.
        let fs = metas(&["a", "b", "c"]);
        let mut p = LayoutProfile::default();
        p.record_edge("a", "b", 10);
        p.record_edge("a", "c", 1000);
        for f in ["a", "b", "c"] {
            p.record_func(f, 1);
        }
        let order = Layout::ProfileGuided(p).order(&fs);
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 2, "hotter callee adjacent to caller");
    }

    #[test]
    fn ambiguous_names_do_not_cluster_but_stay_hot() {
        // Two copies of `helper` (statics): the edge is ignored, both
        // copies still count as hot.
        let fs = metas(&["main", "helper", "helper", "never"]);
        let mut p = LayoutProfile::default();
        p.record_edge("main", "helper", 100);
        p.record_func("main", 10);
        p.record_func("helper", 5);
        let order = Layout::ProfileGuided(p).order(&fs);
        assert_eq!(order.len(), 4);
        assert_eq!(order[3], 3, "only the never-executed function is cold");
    }

    #[test]
    fn order_is_always_a_permutation() {
        let fs = metas(&["a", "b", "c", "d", "e"]);
        let mut p = LayoutProfile::default();
        p.record_edge("a", "c", 5);
        p.record_edge("c", "e", 7);
        p.record_func("b", 1);
        let order = Layout::ProfileGuided(p).order(&fs);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stable_hash_ignores_insertion_order() {
        let mut a = LayoutProfile::default();
        a.record_edge("x", "y", 1);
        a.record_func("x", 2);
        let mut b = LayoutProfile::default();
        b.record_func("x", 2);
        b.record_edge("x", "y", 1);
        assert_eq!(a.stable_hash(), b.stable_hash());
        b.record_func("x", 1);
        assert_ne!(a.stable_hash(), b.stable_hash());
    }
}
