//! Automatic scheduling of initializers and finalizers (§3.2).
//!
//! Each atomic unit declares `initializer f for bundle;` plus fine-grained
//! dependencies:
//!
//! * `serveLog needs stdio` — *export-level*: stdio must be initialized
//!   before any function of the `serveLog` bundle is **called** (but this
//!   alone does not order the two components' initializers);
//! * `open_log needs stdio` — *initializer-level*: stdio must be
//!   initialized before `open_log` itself **runs**.
//!
//! The paper calls this distinction "crucial to avoid over-constraining the
//! initialization order". We reproduce it exactly: for every instance
//! export port we compute the set of initializers that must complete before
//! the port is usable (a fixpoint, since import graphs may be cyclic), and
//! only *initializer-level* dependencies induce ordering edges between
//! initializers. A cycle among initializers is a configuration error,
//! reported with the cycle path — the fix, per the paper, is finer-grained
//! dependency declarations.
//!
//! # Scaling (DESIGN.md §13)
//!
//! Everything here runs on dense indices. Per-unit dependency facts
//! ([`UnitDeps`]: ports, initializers and `needs` lists as positions) are
//! extracted once per registered unit and cached on the [`Program`] next
//! to its interned symbols, so every build and every lint of the program
//! shares them. Initializers and export ports get integer ids, the
//! usable-set fixpoint is a worklist over wire edges whose sets are sorted
//! id vectors merged in linear time, and the topological sorts are layered
//! counting Kahn rounds. The produced schedule — and every error,
//! including reported cycle paths — is identical to the original
//! map-of-strings implementation; only the asymptotics changed.

use std::collections::VecDeque;

use knit_lang::ast::{DepAtom, DepSide, UnitBody, UnitDecl};

use crate::elaborate::{Elaboration, Wire};
use crate::error::KnitError;
use crate::intern::Sym;
use crate::model::{Program, UnitSyms};

/// One scheduled call: (instance id, C function name).
pub type InitKey = (usize, String);

/// The computed schedule.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Initializers, in call order.
    pub inits: Vec<InitKey>,
    /// Finalizers, in call order (consumers before providers).
    pub finis: Vec<InitKey>,
}

impl Schedule {
    /// Human-readable rendering (`path.func`), for logs and tests.
    pub fn describe(&self, el: &Elaboration) -> Vec<String> {
        self.inits.iter().map(|(i, f)| format!("{}.{}", el.instances[*i].path, f)).collect()
    }
}

/// Per-unit dependency facts, shared by every instance of the unit. Ports
/// are positions in the unit's import/export lists (as interned in its
/// [`UnitSyms`]); initializers and finalizers are positions in
/// `inits`/`finis`.
#[derive(Debug, Clone, Default)]
pub struct UnitDeps {
    /// Per export port: the import ports it needs (export-level deps).
    port_deps: Vec<Vec<u32>>,
    /// Per export port: the initializers registered `for` it, in
    /// declaration order.
    inits_for: Vec<Vec<u32>>,
    /// All initializers, declaration order.
    inits: Vec<String>,
    /// Per initializer: the import ports it needs (initializer-level deps).
    init_deps: Vec<Vec<u32>>,
    /// All finalizers, declaration order.
    finis: Vec<String>,
    /// Per finalizer: the import ports it needs.
    fini_deps: Vec<Vec<u32>>,
    /// Per finalizer: the position that names it (a name declared twice
    /// resolves to its last declaration, as a by-name table would).
    fini_ids: Vec<u32>,
}

impl UnitDeps {
    /// Extract the dependency facts of `unit` (empty for compounds, which
    /// are never scheduled themselves).
    pub(crate) fn extract(unit: &UnitDecl) -> UnitDeps {
        let mut d = UnitDeps {
            port_deps: vec![Vec::new(); unit.exports.len()],
            inits_for: vec![Vec::new(); unit.exports.len()],
            ..UnitDeps::default()
        };
        let UnitBody::Atomic(a) = &unit.body else { return d };
        let import_pos = |n: &str| unit.imports.iter().position(|p| p.name == n);
        let export_pos = |n: &str| unit.exports.iter().position(|p| p.name == n);
        // last declaration wins, for initializer and finalizer names alike
        let last = |list: &[knit_lang::ast::InitDecl], n: &str| {
            list.iter().rposition(|i| i.func == n).map(|p| p as u32)
        };
        d.inits = a.initializers.iter().map(|i| i.func.clone()).collect();
        d.finis = a.finalizers.iter().map(|f| f.func.clone()).collect();
        d.init_deps = vec![Vec::new(); d.inits.len()];
        d.fini_deps = vec![Vec::new(); d.finis.len()];
        d.fini_ids = d.finis.iter().map(|f| last(&a.finalizers, f).expect("declared")).collect();
        for dep in &a.depends {
            let mut rhs: Vec<u32> = Vec::new();
            for atom in &dep.rhs {
                match atom {
                    DepAtom::Imports => rhs.extend(0..unit.imports.len() as u32),
                    DepAtom::Name(n) => rhs.extend(import_pos(n).map(|p| p as u32)),
                }
            }
            let mut add = |list: &mut Vec<u32>| list.extend(&rhs);
            match &dep.lhs {
                DepSide::Exports => d.port_deps.iter_mut().for_each(&mut add),
                DepSide::Name(n) => {
                    let is_func = d.inits.contains(n) || d.finis.contains(n);
                    if is_func {
                        for (f, deps) in d.inits.iter().zip(&mut d.init_deps) {
                            if f == n {
                                add(deps);
                            }
                        }
                        for (f, deps) in d.finis.iter().zip(&mut d.fini_deps) {
                            if f == n {
                                add(deps);
                            }
                        }
                    } else if let Some(p) = export_pos(n) {
                        add(&mut d.port_deps[p]);
                    }
                }
            }
        }
        for list in d.port_deps.iter_mut().chain(&mut d.init_deps).chain(&mut d.fini_deps) {
            list.sort_unstable();
            list.dedup();
        }
        for i in &a.initializers {
            if let Some(p) = export_pos(&i.bundle) {
                d.inits_for[p].push(last(&a.initializers, &i.func).expect("declared"));
            }
        }
        d
    }
}

/// Position of export port `port` in `unit`, if it has one.
fn export_pos(unit: &UnitSyms, port: Sym) -> Option<usize> {
    unit.exports.iter().position(|&(p, _)| p == port)
}

/// `dst ∪= src` over sorted, deduplicated id lists; true when `dst` grew.
fn union_into(dst: &mut Vec<u32>, src: &[u32]) -> bool {
    if src.is_empty() {
        return false;
    }
    let mut merged: Vec<u32> = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() && j < src.len() {
        let (a, b) = (dst[i], src[j]);
        merged.push(a.min(b));
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    merged.extend_from_slice(&dst[i..]);
    merged.extend_from_slice(&src[j..]);
    let grew = merged.len() != dst.len();
    if grew {
        *dst = merged;
    }
    grew
}

/// Every node of the graph `srcs` (node → the nodes it reads), each after
/// the nodes it reads, except where a cycle makes that impossible: a
/// depth-first postorder, visiting roots and edges in index order.
fn sources_first(srcs: &[Vec<u32>]) -> Vec<u32> {
    let mut seen = vec![false; srcs.len()];
    let mut order = Vec::with_capacity(srcs.len());
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..srcs.len() as u32 {
        if std::mem::replace(&mut seen[root as usize], true) {
            continue;
        }
        stack.push((root, 0));
        while let Some(top) = stack.len().checked_sub(1) {
            let (t, next) = stack[top];
            match srcs[t as usize].get(next) {
                Some(&g) => {
                    stack[top].1 += 1;
                    if !std::mem::replace(&mut seen[g as usize], true) {
                        stack.push((g, 0));
                    }
                }
                None => {
                    order.push(t);
                    stack.pop();
                }
            }
        }
    }
    order
}

/// Compute the initialization and finalization schedule.
pub fn schedule(program: &Program, el: &Elaboration) -> Result<Schedule, KnitError> {
    // Dependency facts were extracted when each unit was registered;
    // instances share their unit's table.
    let n_insts = el.instances.len();
    let mut units: Vec<Option<&UnitSyms>> = vec![None; n_insts];
    for (unit, ids) in &el.by_unit {
        let syms = &program.syms[unit.as_str()];
        for &id in ids {
            units[id] = Some(syms);
        }
    }
    let units: Vec<&UnitSyms> =
        units.into_iter().map(|u| u.expect("by_unit indexes every instance")).collect();
    let deps: Vec<&UnitDeps> = units.iter().map(|u| &*u.deps).collect();

    // Dense export-port ids: per-instance offset + declaration position;
    // dense initializer/finalizer ids likewise, in (instance order,
    // declaration order) — the stable "pos" order the topological sorts
    // break ties by.
    let mut port_off: Vec<usize> = Vec::with_capacity(n_insts);
    let mut init_off: Vec<u32> = Vec::with_capacity(n_insts);
    let mut fini_off: Vec<u32> = Vec::with_capacity(n_insts);
    let mut n_ports = 0usize;
    let mut keys: Vec<InitKey> = Vec::new();
    let mut fini_keys: Vec<InitKey> = Vec::new();
    for (inst, d) in deps.iter().enumerate() {
        port_off.push(n_ports);
        n_ports += units[inst].exports.len();
        init_off.push(keys.len() as u32);
        keys.extend(d.inits.iter().map(|f| (inst, f.clone())));
        fini_off.push(fini_keys.len() as u32);
        fini_keys.extend(d.finis.iter().map(|f| (inst, f.clone())));
    }
    let n_inits = keys.len();
    // The instance and export port behind import `k` of instance `inst`,
    // when it is wired to another instance.
    let provider = |inst: usize, k: u32| -> Option<(usize, Sym)> {
        match el.instances[inst].imports.get(&units[inst].imports[k as usize].0) {
            Some(Wire::Export { instance, port }) => Some((*instance, *port)),
            _ => None,
        }
    };
    // The dense id of that provider port.
    let wired = |inst: usize, k: u32| -> Option<usize> {
        let (p, port) = provider(inst, k)?;
        export_pos(units[p], port).map(|pos| port_off[p] + pos)
    };

    // --- fixpoint: usable(port) = initializers needed before the
    // functions of that export port may be called ---
    let mut usable: Vec<Vec<u32>> = vec![Vec::new(); n_ports];
    // Wire edges: srcs[t] = provider ports feeding target port t;
    // consumers[g] = target ports reading provider port g.
    let mut srcs: Vec<Vec<u32>> = vec![Vec::new(); n_ports];
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n_ports];
    for (inst, d) in deps.iter().enumerate() {
        for (p, fs) in d.inits_for.iter().enumerate() {
            let set = &mut usable[port_off[inst] + p];
            set.extend(fs.iter().map(|&f| init_off[inst] + f));
            set.sort_unstable();
            set.dedup();
        }
        for (p, needs) in d.port_deps.iter().enumerate() {
            let t = port_off[inst] + p;
            for &k in needs {
                if let Some(g) = wired(inst, k) {
                    srcs[t].push(g as u32);
                    consumers[g].push(t as u32);
                }
            }
        }
    }
    // Worklist: recompute a port's set when one of its sources grew. Sets
    // only grow, so the fixpoint (a pure union) is order-independent; the
    // queue starts sources-first, so on acyclic wiring every port is final
    // at its first visit and only ports on a wiring cycle are revisited.
    let mut queue: VecDeque<u32> =
        sources_first(&srcs).into_iter().filter(|&t| !srcs[t as usize].is_empty()).collect();
    let mut queued: Vec<bool> = vec![false; n_ports];
    for &t in &queue {
        queued[t as usize] = true;
    }
    let mut acc: Vec<u32> = Vec::new();
    while let Some(t) = queue.pop_front() {
        let t = t as usize;
        queued[t] = false;
        acc.clone_from(&usable[t]);
        let mut grew = false;
        for &g in &srcs[t] {
            if g as usize != t {
                grew |= union_into(&mut acc, &usable[g as usize]);
            }
        }
        if grew {
            std::mem::swap(&mut usable[t], &mut acc);
            for &c in &consumers[t] {
                if !queued[c as usize] {
                    queued[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
    }

    // --- ordering edges between initializers: preds[f] = inits that must
    // run before f (initializer-level deps only) ---
    let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n_inits];
    for (inst, d) in deps.iter().enumerate() {
        for (f, needs) in d.init_deps.iter().enumerate() {
            let id = init_off[inst] + f as u32;
            let set = &mut preds[id as usize];
            for &k in needs {
                if let Some(g) = wired(inst, k) {
                    union_into(set, &usable[g]);
                }
            }
            // self-dependency through a chain is a cycle; drop the self edge
            if let Ok(at) = set.binary_search(&id) {
                set.remove(at);
            }
        }
    }
    // detect chains where f transitively requires itself
    check_cycles(&preds, &keys, el)?;

    // --- deterministic layered Kahn topological sort ---
    // Each round releases every initializer whose predecessors all
    // completed in earlier rounds, in stable (instance, declaration) order.
    let order_ids = kahn_layers(
        &preds,
        n_inits,
        |id| id as usize,
        |ids| {
            let mut v: Vec<String> =
                ids.iter().map(|&u| describe_key(&keys[u as usize], el)).collect();
            v.sort();
            v
        },
    )?;
    let order: Vec<InitKey> = order_ids.iter().map(|&u| keys[u as usize].clone()).collect();

    // --- finalizers: consumers before providers ---
    // A finalizer f (for port P, with deps D) must run BEFORE the
    // finalizers of the providers it depends on (they stay alive until f is
    // done). We order by the reverse of the provider relation; where no
    // relation exists, reverse of init order of the owning instances keeps
    // intuitive symmetry.
    let n_finis = fini_keys.len();
    // instance -> earliest init position (for the symmetry heuristic)
    let mut init_pos: Vec<Option<usize>> = vec![None; n_insts];
    for (p, &u) in order_ids.iter().enumerate() {
        let inst = keys[u as usize].0;
        if init_pos[inst].is_none() {
            init_pos[inst] = Some(p);
        }
    }
    let mut heuristic: Vec<u32> = (0..n_finis as u32).collect();
    heuristic.sort_by_key(|&f| {
        std::cmp::Reverse(init_pos[fini_keys[f as usize].0].unwrap_or(usize::MAX))
    });
    let mut fpos: Vec<usize> = vec![0; n_finis];
    for (p, &f) in heuristic.iter().enumerate() {
        fpos[f as usize] = p;
    }
    // refine with explicit fini deps: f before providers' finis. Ids are
    // visited in increasing order, so each list stays sorted and a repeat
    // can only be its last entry.
    let mut fini_preds: Vec<Vec<u32>> = vec![Vec::new(); n_finis];
    for (inst, d) in deps.iter().enumerate() {
        for (f, needs) in d.fini_deps.iter().enumerate() {
            let id = fini_off[inst] + f as u32;
            for &k in needs {
                let Some((provider_inst, _)) = provider(inst, k) else { continue };
                for &pf in &deps[provider_inst].fini_ids {
                    let provider = fini_off[provider_inst] + pf;
                    let list = &mut fini_preds[provider as usize];
                    if provider != id && list.last() != Some(&id) {
                        list.push(id);
                    }
                }
            }
        }
    }
    // topo-sort finis with the heuristic order as tiebreak
    let forder_ids = kahn_layers(
        &fini_preds,
        n_finis,
        |id| fpos[id as usize],
        |ids| {
            let mut v: Vec<String> =
                ids.iter().map(|&u| describe_key(&fini_keys[u as usize], el)).collect();
            v.sort();
            v
        },
    )?;
    let forder: Vec<InitKey> = forder_ids.iter().map(|&u| fini_keys[u as usize].clone()).collect();

    Ok(Schedule { inits: order, finis: forder })
}

fn describe_key(k: &InitKey, el: &Elaboration) -> String {
    format!("{}.{}", el.instances[k.0].path, k.1)
}

/// Layered counting Kahn sort: round *r* emits — ordered by `rank` — every
/// node whose predecessors all completed in rounds before *r*. Returns the
/// emitted ids, or an [`KnitError::InitCycle`] listing the stuck nodes
/// (rendered by `cycle_names`) if some never become ready.
fn kahn_layers(
    preds: &[Vec<u32>],
    n: usize,
    rank: impl Fn(u32) -> usize,
    cycle_names: impl Fn(&[u32]) -> Vec<String>,
) -> Result<Vec<u32>, KnitError> {
    let mut indeg: Vec<usize> = preds.iter().map(|s| s.len()).collect();
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, ps) in preds.iter().enumerate() {
        for &p in ps {
            succ[p as usize].push(u as u32);
        }
    }
    let mut layer: Vec<u32> = (0..n as u32).filter(|&u| indeg[u as usize] == 0).collect();
    layer.sort_by_key(|&u| rank(u));
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while !layer.is_empty() {
        let mut next: Vec<u32> = Vec::new();
        for &u in &layer {
            order.push(u);
            for &s in &succ[u as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    next.push(s);
                }
            }
        }
        next.sort_by_key(|&u| rank(u));
        layer = next;
    }
    if order.len() < n {
        // cycle — normally caught by check_cycles first
        let mut done = vec![false; n];
        for &u in &order {
            done[u as usize] = true;
        }
        let stuck: Vec<u32> = (0..n as u32).filter(|&u| !done[u as usize]).collect();
        return Err(KnitError::InitCycle { cycle: cycle_names(&stuck) });
    }
    Ok(order)
}

/// DFS cycle check over initializer predecessor edges, with path reporting.
/// Nodes and edge targets are visited in `InitKey` order — the order the
/// original `BTreeMap<InitKey, BTreeSet<InitKey>>` implementation used —
/// so the same cycle is found and reported first.
fn check_cycles(preds: &[Vec<u32>], keys: &[InitKey], el: &Elaboration) -> Result<(), KnitError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = keys.len();
    // rank ids by their InitKey's sort order
    let mut by_key: Vec<u32> = (0..n as u32).collect();
    by_key.sort_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
    let mut rank: Vec<usize> = vec![0; n];
    for (r, &u) in by_key.iter().enumerate() {
        rank[u as usize] = r;
    }
    let preds_by_key: Vec<Vec<u32>> = preds
        .iter()
        .map(|s| {
            let mut v: Vec<u32> = s.clone();
            v.sort_by_key(|&p| rank[p as usize]);
            v
        })
        .collect();
    let mut marks = vec![Mark::White; n];
    let mut stack: Vec<u32> = Vec::new();

    fn dfs(
        u: u32,
        preds_by_key: &[Vec<u32>],
        keys: &[InitKey],
        marks: &mut [Mark],
        stack: &mut Vec<u32>,
        el: &Elaboration,
    ) -> Result<(), KnitError> {
        marks[u as usize] = Mark::Grey;
        stack.push(u);
        for &v in &preds_by_key[u as usize] {
            match marks[v as usize] {
                Mark::Grey => {
                    let start = stack.iter().position(|&s| s == v).unwrap_or(0);
                    let mut cycle: Vec<String> = stack[start..]
                        .iter()
                        .map(|&s| describe_key(&keys[s as usize], el))
                        .collect();
                    cycle.push(describe_key(&keys[v as usize], el));
                    return Err(KnitError::InitCycle { cycle });
                }
                Mark::White => dfs(v, preds_by_key, keys, marks, stack, el)?,
                Mark::Black => {}
            }
        }
        stack.pop();
        marks[u as usize] = Mark::Black;
        Ok(())
    }

    for &u in &by_key {
        if marks[u as usize] == Mark::White {
            dfs(u, &preds_by_key, keys, &mut marks, &mut stack, el)?;
        }
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::elaborate;

    fn build(src: &str, root: &str) -> (Program, Elaboration) {
        let mut p = Program::new();
        p.load_str("t.unit", src).unwrap();
        let el = elaborate(&p, root).unwrap();
        (p, el)
    }

    /// The paper's exact scenario: open_log needs stdio orders the two
    /// components; serveLog needs stdio alone would not.
    #[test]
    fn initializer_level_dep_orders_components() {
        let src = r#"
            bundletype Serve = { serve_web }
            bundletype Stdio = { fopen }
            unit StdioU = {
                exports [ stdio : Stdio ];
                initializer stdio_init for stdio;
                files { "s.c" };
            }
            unit Log = {
                imports [ stdio : Stdio ];
                exports [ serveLog : Serve ];
                initializer open_log for serveLog;
                depends { open_log needs stdio; serveLog needs stdio; };
                files { "l.c" };
            }
            unit Sys = {
                exports [ out : Serve ];
                link {
                    s : StdioU;
                    l : Log [ stdio = s.stdio ];
                    out = l.serveLog;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let names = sched.describe(&el);
        let pos = |n: &str| names.iter().position(|x| x.ends_with(n)).unwrap();
        assert!(pos("stdio_init") < pos("open_log"), "{names:?}");
    }

    /// Export-level deps alone must NOT order the initializers (§3.2:
    /// "this declaration alone does not constrain the order").
    #[test]
    fn export_level_dep_does_not_overconstrain() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            unit UA = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { a needs b; };
                files { "a.c" };
            }
            unit UB = {
                imports [ a : A ];
                exports [ b : B ];
                initializer ib for b;
                depends { b needs a; };
                files { "b.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    ua : UA [ b = ub.b ];
                    ub : UB [ a = ua.a ];
                    out = ua.a;
                };
            }
        "#;
        // mutual *export-level* deps form no initializer cycle
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        assert_eq!(sched.inits.len(), 2);
    }

    /// Initializer-level mutual deps DO form a cycle and must be reported.
    #[test]
    fn init_cycle_detected_with_path() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            unit UA = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { ia needs b; };
                files { "a.c" };
            }
            unit UB = {
                imports [ a : A ];
                exports [ b : B ];
                initializer ib for b;
                depends { ib needs a; };
                files { "b.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    ua : UA [ b = ub.b ];
                    ub : UB [ a = ua.a ];
                    out = ua.a;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        match schedule(&p, &el) {
            Err(KnitError::InitCycle { cycle }) => {
                assert!(cycle.len() >= 2, "{cycle:?}");
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    /// Transitive ordering through a middle unit with no initializer.
    #[test]
    fn transitive_ordering_through_uninitialized_unit() {
        let src = r#"
            bundletype A = { fa }
            bundletype B = { fb }
            bundletype C = { fc }
            unit Base = {
                exports [ c : C ];
                initializer ic for c;
                files { "c.c" };
            }
            unit Middle = {
                imports [ c : C ];
                exports [ b : B ];
                depends { b needs c; };
                files { "m.c" };
            }
            unit Top = {
                imports [ b : B ];
                exports [ a : A ];
                initializer ia for a;
                depends { ia needs b; };
                files { "t.c" };
            }
            unit Sys = {
                exports [ out : A ];
                link {
                    base : Base;
                    mid : Middle [ c = base.c ];
                    top : Top [ b = mid.b ];
                    out = top.a;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let names = sched.describe(&el);
        let pos = |n: &str| names.iter().position(|x| x.ends_with(n)).unwrap();
        // ia needs b; b (middle) needs c; so ic must run before ia even
        // though the middle unit has no initializer of its own.
        assert!(pos("ic") < pos("ia"), "{names:?}");
    }

    #[test]
    fn finalizers_run_in_reverse_dependency_order() {
        let src = r#"
            bundletype S = { fs }
            bundletype L = { fl }
            unit StdioU = {
                exports [ s : S ];
                initializer is for s;
                finalizer fs_close for s;
                files { "s.c" };
            }
            unit Log = {
                imports [ s : S ];
                exports [ l : L ];
                initializer il for l;
                finalizer fl_close for l;
                depends { il needs s; fl_close needs s; };
                files { "l.c" };
            }
            unit Sys = {
                exports [ out : L ];
                link {
                    s : StdioU;
                    l : Log [ s = s.s ];
                    out = l.l;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let sched = schedule(&p, &el).unwrap();
        let inits = sched.describe(&el);
        let finis: Vec<String> =
            sched.finis.iter().map(|(i, f)| format!("{}.{}", el.instances[*i].path, f)).collect();
        let ipos = |n: &str| inits.iter().position(|x| x.ends_with(n)).unwrap();
        let fpos = |n: &str| finis.iter().position(|x| x.ends_with(n)).unwrap();
        assert!(ipos("is") < ipos("il"));
        // log's finalizer uses stdio, so it must run BEFORE stdio's.
        assert!(fpos("fl_close") < fpos("fs_close"), "{finis:?}");
    }

    #[test]
    fn schedule_is_deterministic() {
        let src = r#"
            bundletype T = { f }
            unit Leaf = {
                exports [ o : T ];
                initializer boot for o;
                files { "l.c" };
            }
            unit Sys = {
                exports [ a : T, b : T, c : T ];
                link {
                    x : Leaf; y : Leaf; z : Leaf;
                    a = x.o; b = y.o; c = z.o;
                };
            }
        "#;
        let (p, el) = build(src, "Sys");
        let s1 = schedule(&p, &el).unwrap();
        let s2 = schedule(&p, &el).unwrap();
        assert_eq!(s1.inits, s2.inits);
        assert_eq!(s1.inits.len(), 3);
    }
}
