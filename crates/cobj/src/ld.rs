//! The bag-of-objects linker.
//!
//! This is a faithful model of classic Unix `ld` semantics as the paper
//! describes them (Section 2.1 and 5.1):
//!
//! * Inputs are processed **in order**; explicit objects are always
//!   included.
//! * An archive member is included only if it defines a symbol that is
//!   currently undefined; an archive is re-scanned until no more members
//!   are pulled in. This is what made "override by careful ordering of
//!   ld's arguments" work in the pre-Knit OSKit.
//! * All resolution happens in a single global namespace: two included
//!   definitions of one name are a hard error, and there is no way to link
//!   the same undefined name to two different providers — which is exactly
//!   why `ld` cannot express the interposition of Figure 1(c). (The Knit
//!   pipeline avoids the limitation by `objcopy`-renaming symbols *before*
//!   calling this same linker.)
//!
//! Undefined names listed in [`LinkOptions::runtime_symbols`] are satisfied
//! by the runtime (the `machine` crate's intrinsics) rather than by objects.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::archive::Archive;
use crate::error::LinkError;
use crate::fnv::{FnvMap, FnvSet};
use crate::image::{
    align_up, CallTarget, Image, ImageFunc, RInstr, SymbolLoc, FUNC_ALIGN, TEXT_BASE,
};
use crate::ir::{Instr, SymId};
use crate::layout::{FuncMeta, Layout};
use crate::object::{FuncDef, ObjectFile, ObjectRef, SymDef};

/// One linker command-line argument.
#[derive(Debug, Clone)]
pub enum LinkInput {
    /// An explicit object file — always included.
    Object(ObjectFile),
    /// An archive — members included on demand.
    Archive(Archive),
}

/// One borrowed linker argument: what [`link_refs`] reads.
#[derive(Debug, Clone, Copy)]
pub enum InputRef<'a> {
    /// An explicit object — always included.
    Object(ObjectRef<'a>),
    /// An archive — members included on demand.
    Archive(&'a Archive),
}

/// Linker configuration.
#[derive(Debug, Clone, Default)]
pub struct LinkOptions {
    /// Entry symbol to record in the image (must be a defined function if
    /// given).
    pub entry: Option<String>,
    /// Names provided by the runtime; undefined references to these resolve
    /// to intrinsics instead of failing.
    pub runtime_symbols: BTreeSet<String>,
    /// Text-placement strategy. [`Layout::InputOrder`] (the default) keeps
    /// the historical placement byte-for-byte.
    pub layout: Layout,
}

impl LinkOptions {
    /// Options with an entry point and a set of runtime symbols.
    pub fn new(entry: impl Into<String>, runtime: impl IntoIterator<Item = String>) -> Self {
        LinkOptions {
            entry: Some(entry.into()),
            runtime_symbols: runtime.into_iter().collect(),
            layout: Layout::InputOrder,
        }
    }

    /// Replace the text-placement strategy.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }
}

/// Link `inputs` into an executable [`Image`].
pub fn link(inputs: &[LinkInput], opts: &LinkOptions) -> Result<Image, LinkError> {
    let refs: Vec<InputRef<'_>> = inputs
        .iter()
        .map(|i| match i {
            LinkInput::Object(o) => InputRef::Object(o.view()),
            LinkInput::Archive(a) => InputRef::Archive(a),
        })
        .collect();
    link_refs(&refs, opts)
}

/// Link borrowed `inputs` into an executable [`Image`] — [`link`] without
/// owning (or copying) any object. Both give the same image and the same
/// errors for the same inputs.
pub fn link_refs(inputs: &[InputRef<'_>], opts: &LinkOptions) -> Result<Image, LinkError> {
    link_memo(inputs, None, opts)
}

/// Fingerprints of one object input, which let a [`LinkMemo`] tell what
/// changed since its previous link. Equal fingerprints must mean equal
/// contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputKey {
    /// Fingerprint of the symbol table: every entry's name and definition,
    /// in order.
    pub symbols: u64,
    /// Fingerprint of the whole object: symbol table, text and data.
    pub content: u64,
}

/// What a link keeps for the next link of mostly the same objects.
///
/// [`LinkMemo::link`] gives exactly the image and errors of [`link_refs`].
/// When every input's symbol-table fingerprint and the runtime symbols
/// match the previous link, it reuses phase 1 (selection and resolution)
/// and validates only the objects whose content changed. Then it shares
/// with the previous image every function whose object, resolved symbols
/// and address are unchanged, and the symbol map and address index when
/// nothing they hold moved.
#[derive(Debug, Default)]
pub struct LinkMemo {
    last: Option<Linked>,
    reused_resolution: bool,
}

impl LinkMemo {
    /// Link `inputs`, fingerprinted by `keys` (one per input). Archives
    /// are never reused: a link with one runs in full and keeps nothing.
    pub fn link(
        &mut self,
        inputs: &[InputRef<'_>],
        keys: &[InputKey],
        opts: &LinkOptions,
    ) -> Result<Image, LinkError> {
        assert_eq!(inputs.len(), keys.len(), "one key per input");
        link_memo(inputs, Some((keys, self)), opts)
    }

    /// Whether the last [`LinkMemo::link`] reused the previous resolution.
    pub fn reused_resolution(&self) -> bool {
        self.reused_resolution
    }
}

/// The previous keyed link. Everything is indexed like its inputs.
#[derive(Debug)]
struct Linked {
    keys: Vec<InputKey>,
    runtime: BTreeSet<String>,
    res: Resolution,
    tables: Tables,
    image: Image,
}

/// Per-function and per-symbol tables of one link, kept for the next.
#[derive(Debug)]
struct Tables {
    /// First input-order function index of each object.
    func_base: Vec<usize>,
    /// Encoded size of every function, in input order.
    sizes: Vec<u64>,
    /// Image function index of every function, in input order.
    slot_of: Vec<u32>,
    /// Resolution of every symbol-table entry, by flat index.
    resolved: Vec<Resolved>,
}

fn link_memo(
    inputs: &[InputRef<'_>],
    memo: Option<(&[InputKey], &mut LinkMemo)>,
    opts: &LinkOptions,
) -> Result<Image, LinkError> {
    let Some((keys, memo)) = memo else {
        let (included, res) = select_objects(inputs, opts, &[])?;
        return Ok(layout(&included, &res, opts, None)?.0);
    };
    let last = memo.last.take();
    let objects: Option<Vec<ObjectRef<'_>>> = inputs
        .iter()
        .map(|i| match *i {
            InputRef::Object(o) => Some(o),
            InputRef::Archive(_) => None,
        })
        .collect();
    let Some(objects) = objects else {
        memo.reused_resolution = false;
        let (included, res) = select_objects(inputs, opts, &[])?;
        return Ok(layout(&included, &res, opts, None)?.0);
    };
    // The previous link is comparable object by object when it had as
    // many inputs; its resolution holds when no symbol table changed.
    let last = last.filter(|l| l.keys.len() == keys.len());
    let reuse = last.as_ref().is_some_and(|l| {
        l.keys.iter().zip(keys).all(|(a, b)| a.symbols == b.symbols)
            && l.runtime == opts.runtime_symbols
    });
    // Validity is a property of an object's content: only an object whose
    // content changed can newly fail validation.
    let validated: Vec<bool> = match &last {
        Some(l) => l.keys.iter().zip(keys).map(|(a, b)| a.content == b.content).collect(),
        None => Vec::new(),
    };
    let mut fresh: Option<Resolution> = None;
    let res = match &last {
        Some(l) if reuse => {
            for (o, _) in objects.iter().zip(&validated).filter(|(_, &v)| !v) {
                o.validate()?;
            }
            &l.res
        }
        _ => fresh.insert(select_objects(inputs, opts, &validated)?.1),
    };
    memo.reused_resolution = reuse;
    let (image, tables) = layout(&objects, res, opts, last.as_ref().map(|l| (keys, l, reuse)))?;
    let res = match fresh {
        Some(res) => res,
        None => last.expect("resolution reused").res,
    };
    memo.last = Some(Linked {
        keys: keys.to_vec(),
        runtime: opts.runtime_symbols.clone(),
        res,
        tables,
        image: image.clone(),
    });
    Ok(image)
}

/// What an undefined symbol-table entry resolves to.
#[derive(Debug, Clone, Copy)]
enum Import {
    /// The global definition at this flat symbol index.
    Def(usize),
    /// The runtime intrinsic with this id.
    Intrinsic(u32),
}

/// The outcome of phase 1, apart from the participating objects. Symbols
/// are numbered densely across the included objects: object `oi`'s entry
/// `s` is flat index `sym_base[oi] + s`.
#[derive(Debug)]
struct Resolution {
    /// First flat symbol index of each included object.
    sym_base: Vec<usize>,
    /// Number of symbol-table entries across the included objects.
    n_syms: usize,
    /// Every undefined entry's resolution: (flat index, target).
    imports: Vec<(usize, Import)>,
    /// Runtime intrinsic names, in id order.
    intrinsics: Vec<String>,
    /// Flat index of every global definition, in name order.
    defs: Vec<usize>,
}

/// Phase-1 state: the objects included so far and their definitions.
struct Selector<'a, 'r> {
    included: Vec<ObjectRef<'a>>,
    sym_base: Vec<usize>,
    n_syms: usize,
    defined: FnvMap<&'a str, usize>,
    runtime: &'r FnvMap<&'r str, u32>,
    /// Names referenced but not yet defined (runtime-satisfied names never
    /// enter this set, so they do not pull archive members). Only archive
    /// scans read it, so it is built at the first archive.
    pending: Option<FnvSet<&'a str>>,
}

impl<'a> Selector<'a, '_> {
    fn include(&mut self, obj: ObjectRef<'a>, validate: bool) -> Result<(), LinkError> {
        if validate {
            obj.validate()?;
        }
        for (si, s) in obj.symbols.iter().enumerate() {
            if s.is_global_def() {
                if let Some(&first) = self.defined.get(s.name.as_str()) {
                    let first = self.sym_base.partition_point(|&b| b <= first) - 1;
                    return Err(LinkError::MultipleDefinition {
                        name: s.name.clone(),
                        first: self.included[first].name.to_string(),
                        second: obj.name.to_string(),
                    });
                }
                self.defined.insert(&s.name, self.n_syms + si);
                if let Some(p) = self.pending.as_mut() {
                    p.remove(s.name.as_str());
                }
            }
        }
        if let Some(p) = self.pending.as_mut() {
            for s in obj.symbols {
                if s.def == SymDef::Undefined
                    && !self.defined.contains_key(s.name.as_str())
                    && !self.runtime.contains_key(s.name.as_str())
                {
                    p.insert(&s.name);
                }
            }
        }
        self.sym_base.push(self.n_syms);
        self.n_syms += obj.symbols.len();
        self.included.push(obj);
        Ok(())
    }

    /// Whether archive member `m` defines a name still wanted.
    fn wants(&mut self, m: &ObjectFile) -> bool {
        let (included, defined, runtime) = (&self.included, &self.defined, self.runtime);
        let pending = self.pending.get_or_insert_with(|| {
            included
                .iter()
                .flat_map(|o| o.symbols)
                .filter(|s| s.def == SymDef::Undefined)
                .map(|s| s.name.as_str())
                .filter(|n| !defined.contains_key(n) && !runtime.contains_key(n))
                .collect()
        });
        m.symbols.iter().any(|s| s.is_global_def() && pending.contains(s.name.as_str()))
    }
}

/// Phase 1: decide which objects participate, applying archive semantics,
/// and resolve every undefined reference. `validated[i]` marks input `i`
/// as an object validated before (missing entries are validated).
fn select_objects<'a>(
    inputs: &[InputRef<'a>],
    opts: &LinkOptions,
    validated: &[bool],
) -> Result<(Vec<ObjectRef<'a>>, Resolution), LinkError> {
    let n_symbols: usize = inputs
        .iter()
        .map(|i| match i {
            InputRef::Object(o) => o.symbols.len(),
            InputRef::Archive(_) => 0,
        })
        .sum();
    let intrinsics: Vec<String> = opts.runtime_symbols.iter().cloned().collect();
    let runtime: FnvMap<&str, u32> =
        intrinsics.iter().enumerate().map(|(i, n)| (n.as_str(), i as u32)).collect();
    let mut sel = Selector {
        included: Vec::with_capacity(inputs.len()),
        sym_base: Vec::with_capacity(inputs.len()),
        n_syms: 0,
        defined: FnvMap::with_capacity_and_hasher(n_symbols, Default::default()),
        runtime: &runtime,
        pending: None,
    };
    for (i, input) in inputs.iter().enumerate() {
        match *input {
            InputRef::Object(o) => sel.include(o, !validated.get(i).copied().unwrap_or(false))?,
            InputRef::Archive(a) => {
                let mut pulled_members = vec![false; a.members.len()];
                loop {
                    let mut pulled = false;
                    for (mi, m) in a.members.iter().enumerate() {
                        if !pulled_members[mi] && sel.wants(m) {
                            sel.include(m.view(), true)?;
                            pulled_members[mi] = true;
                            pulled = true;
                        }
                    }
                    if !pulled {
                        break;
                    }
                }
            }
        }
    }
    let Selector { included, sym_base, n_syms, defined, .. } = sel;

    // Resolve every undefined entry: a global definition first, then the
    // runtime. If any name stays unresolved, report the lexicographically
    // first with every object that references it, for a useful (and
    // order-stable) diagnostic.
    let mut imports: Vec<(usize, Import)> = Vec::new();
    let mut missing: Option<&str> = None;
    for (obj, &base) in included.iter().zip(&sym_base) {
        for (si, s) in obj.symbols.iter().enumerate() {
            if s.def != SymDef::Undefined {
                continue;
            }
            let name = s.name.as_str();
            match (defined.get(name), runtime.get(name)) {
                (Some(&d), _) => imports.push((base + si, Import::Def(d))),
                (None, Some(&id)) => imports.push((base + si, Import::Intrinsic(id))),
                (None, None) => {
                    if missing.is_none_or(|m| name < m) {
                        missing = Some(name);
                    }
                }
            }
        }
    }
    if let Some(name) = missing {
        let refs: Vec<String> = included
            .iter()
            .filter(|o| o.symbols.iter().any(|s| s.def == SymDef::Undefined && s.name == name))
            .map(|o| o.name.to_string())
            .collect();
        return Err(LinkError::UndefinedReference {
            name: name.to_string(),
            referenced_from: refs,
        });
    }
    let mut defs: Vec<(&str, usize)> = defined.into_iter().collect();
    defs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let defs = defs.into_iter().map(|(_, d)| d).collect();
    Ok((included, Resolution { sym_base, n_syms, imports, intrinsics, defs }))
}

/// Resolution of one symbol-table entry of one included object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    /// Not resolved (yet): an entry with no body.
    None,
    Func(u32),
    Data(u64),
    Intrinsic(u32),
}

/// This link's keys, the previous link (with as many inputs, so objects
/// compare position by position), and whether phase 1 was reused from it.
type Prev<'p> = (&'p [InputKey], &'p Linked, bool);

/// Phase 2: lay out text and data, apply relocations, resolve operands.
///
/// Every table here is dense — per-symbol and per-data-item vectors
/// indexed by flat index — and names are hashed only once, in phase 1.
fn layout(
    included: &[ObjectRef<'_>],
    res: &Resolution,
    opts: &LinkOptions,
    prev: Option<Prev<'_>>,
) -> Result<(Image, Tables), LinkError> {
    let sym_base = &res.sym_base;
    // An object is unchanged when its content fingerprint matches the
    // previous link's at the same position.
    let unchanged: Vec<bool> = match prev {
        Some((keys, l, _)) => {
            keys.iter().zip(&l.keys).map(|(k, w)| k.content == w.content).collect()
        }
        None => vec![false; included.len()],
    };
    // Object `oi`'s data item `d` is `data_base_ix[oi] + d`, its function
    // `f` is `func_base[oi] + f` in input order.
    let mut data_base_ix: Vec<usize> = Vec::with_capacity(included.len());
    let mut func_base: Vec<usize> = Vec::with_capacity(included.len());
    let (mut n_data, mut n_funcs) = (0usize, 0usize);
    for obj in included {
        data_base_ix.push(n_data);
        func_base.push(n_funcs);
        n_data += obj.data.len();
        n_funcs += obj.funcs.len();
    }

    // --- assign text addresses ---
    // Gather candidates in input order, then let the layout strategy pick
    // the placement order. `InputOrder` returns the identity permutation,
    // reproducing the historical images byte-for-byte.
    let mut sizes: Vec<u64> = Vec::with_capacity(n_funcs);
    for (oi, obj) in included.iter().enumerate() {
        match prev {
            Some((_, l, _)) if unchanged[oi] => {
                let b = l.tables.func_base[oi];
                sizes.extend_from_slice(&l.tables.sizes[b..b + obj.funcs.len()]);
            }
            _ => sizes.extend(obj.funcs.iter().map(FuncDef::size_bytes)),
        }
    }
    let mut raw: Vec<(usize, &FuncDef)> = Vec::with_capacity(n_funcs);
    let mut metas: Vec<FuncMeta<'_>> = Vec::with_capacity(n_funcs);
    for (oi, obj) in included.iter().enumerate() {
        for f in obj.funcs {
            metas.push(FuncMeta { name: &obj.symbol(f.sym).name, size: sizes[raw.len()] });
            raw.push((oi, f));
        }
    }
    let order = opts.layout.order(&metas);
    debug_assert_eq!(order.len(), raw.len());
    let mut addrs: Vec<u64> = Vec::with_capacity(raw.len());
    let mut slot_of: Vec<u32> = vec![0; raw.len()];
    let mut cursor = TEXT_BASE;
    for (fi, &ri) in order.iter().enumerate() {
        cursor = align_up(cursor, FUNC_ALIGN);
        addrs.push(cursor);
        slot_of[ri] = fi as u32;
        cursor += sizes[ri];
    }
    let text_end = cursor;
    let text_size: u64 = sizes.iter().sum();

    // --- assign data addresses ---
    let data_base = align_up(text_end, 0x1000);
    let mut data_cursor = data_base;
    let mut data_addrs: Vec<u64> = Vec::with_capacity(n_data);
    for obj in included {
        for d in obj.data {
            data_cursor = align_up(data_cursor, d.align.max(1));
            data_addrs.push(data_cursor);
            data_cursor += d.size_bytes();
        }
    }
    let heap_base = align_up(data_cursor.max(data_base + 1), 0x1000);

    // --- resolve every symbol-table entry (locals included) ---
    let mut resolved: Vec<Resolved> = vec![Resolved::None; res.n_syms];
    for (ri, &(oi, f)) in raw.iter().enumerate() {
        resolved[sym_base[oi] + f.sym.0 as usize] = Resolved::Func(slot_of[ri]);
    }
    for (oi, obj) in included.iter().enumerate() {
        for (di, d) in obj.data.iter().enumerate() {
            let addr = data_addrs[data_base_ix[oi] + di];
            resolved[sym_base[oi] + d.sym.0 as usize] = Resolved::Data(addr);
        }
    }
    for &(at, import) in &res.imports {
        resolved[at] = match import {
            Import::Def(d) => resolved[d],
            Import::Intrinsic(id) => Resolved::Intrinsic(id),
        };
    }
    let addr_of = |r: Resolved| -> u64 {
        match r {
            Resolved::Func(fi) => addrs[fi as usize],
            Resolved::Data(a) => a,
            Resolved::Intrinsic(id) => Image::intrinsic_addr(id),
            Resolved::None => unreachable!("validated objects resolve every symbol"),
        }
    };

    // --- build image functions with resolved bodies ---
    // A resolved body reads its own address and its symbols' resolutions
    // (function addresses included, through `Addr`). When no function
    // moved, an unchanged object whose symbols resolve as before keeps
    // every function of the previous image.
    let same_addrs = |img: &Image| {
        img.funcs.len() == addrs.len() && img.funcs.iter().zip(&addrs).all(|(f, &a)| f.addr == a)
    };
    let keep: Vec<bool> = match prev {
        Some((_, l, _)) if same_addrs(&l.image) => (0..included.len())
            .map(|oi| {
                let n = included[oi].symbols.len();
                let (now, was) = (sym_base[oi], l.res.sym_base[oi]);
                unchanged[oi] && resolved[now..now + n] == l.tables.resolved[was..was + n]
            })
            .collect(),
        _ => vec![false; included.len()],
    };
    let mut funcs: Vec<Arc<ImageFunc>> = Vec::with_capacity(raw.len());
    for (fi, &ri) in order.iter().enumerate() {
        let (oi, def) = raw[ri];
        if keep[oi] {
            if let Some((_, l, _)) = prev {
                let t = &l.tables;
                let was = t.slot_of[t.func_base[oi] + (ri - func_base[oi])];
                funcs.push(Arc::clone(&l.image.funcs[was as usize]));
                continue;
            }
        }
        let obj = &included[oi];
        let table = &resolved[sym_base[oi]..sym_base[oi] + obj.symbols.len()];
        let resolve = |sym: SymId| table[sym.0 as usize];
        let addr = addrs[fi];
        let mut body = Vec::with_capacity(def.body.len());
        let mut instr_addrs = Vec::with_capacity(def.body.len());
        let mut instr_sizes = Vec::with_capacity(def.body.len());
        let mut pc = addr;
        for instr in &def.body {
            let size = instr.size_bytes();
            instr_addrs.push(pc);
            instr_sizes.push(size as u16);
            pc += size;
            let r = match instr {
                Instr::Const { dst, value } => RInstr::Const { dst: *dst, value: *value },
                Instr::Mov { dst, src } => RInstr::Mov { dst: *dst, src: *src },
                Instr::Bin { op, dst, a, b } => RInstr::Bin { op: *op, dst: *dst, a: *a, b: *b },
                Instr::Un { op, dst, a } => RInstr::Un { op: *op, dst: *dst, a: *a },
                Instr::Load { dst, addr, offset, width } => {
                    RInstr::Load { dst: *dst, addr: *addr, offset: *offset, width: *width }
                }
                Instr::Store { addr, offset, src, width } => {
                    RInstr::Store { addr: *addr, offset: *offset, src: *src, width: *width }
                }
                Instr::Addr { dst, sym, offset } => {
                    let base = addr_of(resolve(*sym));
                    RInstr::Const { dst: *dst, value: base.wrapping_add_signed(*offset) as i64 }
                }
                Instr::FrameAddr { dst, offset } => {
                    RInstr::FrameAddr { dst: *dst, offset: *offset }
                }
                Instr::VarArg { dst, idx } => RInstr::VarArg { dst: *dst, idx: *idx },
                Instr::Call { dst, target, args } => {
                    let tgt = match resolve(*target) {
                        Resolved::Func(fi) => CallTarget::Func(fi),
                        Resolved::Intrinsic(id) => CallTarget::Intrinsic(id),
                        Resolved::Data(_) => {
                            return Err(LinkError::KindMismatch {
                                name: obj.symbol(*target).name.clone(),
                                from: obj.name.to_string(),
                            })
                        }
                        Resolved::None => unreachable!("validated objects resolve every symbol"),
                    };
                    RInstr::Call { dst: *dst, target: tgt, args: args.clone() }
                }
                Instr::CallInd { dst, target, args } => {
                    RInstr::CallInd { dst: *dst, target: *target, args: args.clone() }
                }
                Instr::Jump { target } => RInstr::Jump { target: *target },
                Instr::Branch { cond, then_to, else_to } => {
                    RInstr::Branch { cond: *cond, then_to: *then_to, else_to: *else_to }
                }
                Instr::Ret { value } => RInstr::Ret { value: *value },
                Instr::Nop => RInstr::Nop,
            };
            body.push(r);
        }
        funcs.push(Arc::new(ImageFunc {
            name: obj.symbol(def.sym).name.clone(),
            addr,
            size: pc - addr,
            params: def.params,
            nregs: def.nregs,
            frame_size: def.frame_size,
            body,
            instr_addrs,
            instr_sizes,
        }));
    }

    // --- build and relocate the data segment ---
    let mut data = vec![0u8; (data_cursor - data_base) as usize];
    for (oi, obj) in included.iter().enumerate() {
        for (di, d) in obj.data.iter().enumerate() {
            let addr = data_addrs[data_base_ix[oi] + di];
            let off = (addr - data_base) as usize;
            data[off..off + d.init.len()].copy_from_slice(&d.init);
            for reloc in &d.relocs {
                let target = resolved[sym_base[oi] + reloc.sym.0 as usize];
                let value = addr_of(target).wrapping_add_signed(reloc.addend);
                let at = off + reloc.offset as usize;
                data[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    // --- symbol map and entry ---
    let name_of = |d: usize| {
        let oi = sym_base.partition_point(|&b| b <= d) - 1;
        included[oi].symbols[d - sym_base[oi]].name.as_str()
    };
    let def_loc = |d: usize| match resolved[d] {
        Resolved::Func(fi) => SymbolLoc::Func(fi),
        Resolved::Data(a) => SymbolLoc::Data(a),
        Resolved::Intrinsic(_) | Resolved::None => unreachable!("definitions have bodies"),
    };
    let entry = match &opts.entry {
        Some(name) => {
            match res.defs.binary_search_by(|&d| name_of(d).cmp(name)).map(|i| def_loc(res.defs[i]))
            {
                Ok(SymbolLoc::Func(fi)) => Some(fi),
                _ => return Err(LinkError::NoEntry { name: name.clone() }),
            }
        }
        None => None,
    };
    let (symbols, addr_to_func) = match prev {
        // Same resolution, same placement: the same map and index.
        Some((_, l, true)) if resolved == l.tables.resolved && same_addrs(&l.image) => {
            (Arc::clone(&l.image.symbols), Arc::clone(&l.image.addr_to_func))
        }
        _ => {
            let mut names: Vec<&str> = Vec::with_capacity(res.n_syms);
            for obj in included {
                names.extend(obj.symbols.iter().map(|s| s.name.as_str()));
            }
            let symbols: BTreeMap<String, SymbolLoc> =
                res.defs.iter().map(|&d| (names[d].to_string(), def_loc(d))).collect();
            let addr_to_func = addrs.iter().enumerate().map(|(i, &a)| (a, i as u32)).collect();
            (Arc::new(symbols), Arc::new(addr_to_func))
        }
    };
    let image = Image {
        funcs: funcs.into(),
        addr_to_func,
        data,
        data_base,
        heap_base,
        symbols,
        intrinsics: res.intrinsics.clone(),
        text_size,
        entry,
    };
    Ok((image, Tables { func_base, sizes, slot_of, resolved }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;
    use crate::object::{DataDef, DataReloc, Symbol};

    /// Object defining `name` as a function that returns `ret`, optionally
    /// calling `calls` first.
    fn func_obj(objname: &str, name: &str, ret: i64, calls: &[&str]) -> ObjectFile {
        let mut o = ObjectFile::new(objname);
        let f = o.add_symbol(Symbol::func(name));
        let mut body = Vec::new();
        for c in calls {
            let cs = o.find_symbol(c).unwrap_or_else(|| o.add_symbol(Symbol::undef(*c)));
            body.push(Instr::Call { dst: None, target: cs, args: vec![] });
        }
        body.push(Instr::Const { dst: 0, value: ret });
        body.push(Instr::Ret { value: Some(0) });
        o.funcs.push(FuncDef { sym: f, params: 0, nregs: 1, frame_size: 0, body });
        o
    }

    #[test]
    fn simple_link_resolves_calls() {
        let a = func_obj("main.o", "main", 1, &["helper"]);
        let b = func_obj("help.o", "helper", 2, &[]);
        let img =
            link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::new("main", []))
                .unwrap();
        assert_eq!(img.funcs.len(), 2);
        let main = &img.funcs[img.entry.unwrap() as usize];
        assert!(matches!(
            main.body[0],
            RInstr::Call { target: CallTarget::Func(fi), .. } if img.funcs[fi as usize].name == "helper"
        ));
    }

    #[test]
    fn undefined_reference_is_an_error() {
        let a = func_obj("main.o", "main", 1, &["missing"]);
        let err = link(&[LinkInput::Object(a)], &LinkOptions::new("main", [])).unwrap_err();
        match err {
            LinkError::UndefinedReference { name, referenced_from } => {
                assert_eq!(name, "missing");
                assert_eq!(referenced_from, vec!["main.o".to_string()]);
            }
            other => panic!("expected undefined reference, got {other}"),
        }
    }

    #[test]
    fn multiple_definition_is_an_error() {
        let a = func_obj("a.o", "f", 1, &[]);
        let b = func_obj("b.o", "f", 2, &[]);
        let err = link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::default())
            .unwrap_err();
        assert!(matches!(err, LinkError::MultipleDefinition { .. }));
    }

    #[test]
    fn archive_member_pulled_only_on_demand() {
        let main = func_obj("main.o", "main", 1, &["used"]);
        let lib = Archive::from_members(
            "lib.a",
            vec![func_obj("used.o", "used", 2, &[]), func_obj("unused.o", "unused", 3, &[])],
        );
        let img = link(
            &[LinkInput::Object(main), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        // `unused.o` must not be included.
        assert_eq!(img.funcs.len(), 2);
        assert!(img.func_by_name("unused").is_none());
    }

    #[test]
    fn archive_pull_reaches_fixpoint() {
        // main -> a, a -> b, both in the same archive, b appearing first:
        // requires the re-scan loop.
        let main = func_obj("main.o", "main", 1, &["a"]);
        let lib = Archive::from_members(
            "lib.a",
            vec![func_obj("b.o", "b", 2, &[]), func_obj("a.o", "a", 3, &["b"])],
        );
        let img = link(
            &[LinkInput::Object(main), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        assert_eq!(img.funcs.len(), 3);
    }

    #[test]
    fn override_by_ordering_works_like_the_oskit_used_it() {
        // Paper §5.1: placing a replacement object before the original
        // library overrides the component.
        let main = func_obj("main.o", "main", 1, &["console_putc"]);
        let replacement = func_obj("serial.o", "console_putc", 42, &[]);
        let lib = Archive::from_members("libc.a", vec![func_obj("vga.o", "console_putc", 7, &[])]);
        let img = link(
            &[LinkInput::Object(main), LinkInput::Object(replacement), LinkInput::Archive(lib)],
            &LinkOptions::new("main", []),
        )
        .unwrap();
        // The archive member is skipped because the symbol is already
        // defined; the replacement wins.
        assert_eq!(img.funcs.len(), 2);
        let f = img.func_by_name("console_putc").unwrap();
        assert!(matches!(img.funcs[f as usize].body[0], RInstr::Const { value: 42, .. }));
    }

    #[test]
    fn interposition_is_impossible_with_ld() {
        // Figure 1(c): we want logger between main and serve, but all three
        // pieces speak the same symbol `serve`. Including both providers of
        // `serve` is a multiple-definition error — ld cannot build the
        // three-piece puzzle.
        let main = func_obj("main.o", "main", 1, &["serve"]);
        let real = func_obj("serve.o", "serve", 2, &[]);
        // logger exports `serve` and imports `serve` (impossible to express
        // in one object without renaming — we must split the name, which is
        // precisely the problem).
        let logger = func_obj("log.o", "serve", 3, &[]);
        let err = link(
            &[LinkInput::Object(main), LinkInput::Object(logger), LinkInput::Object(real)],
            &LinkOptions::new("main", []),
        )
        .unwrap_err();
        assert!(matches!(err, LinkError::MultipleDefinition { .. }));
    }

    #[test]
    fn runtime_symbols_become_intrinsics() {
        let main = func_obj("main.o", "main", 1, &["__halt"]);
        let img =
            link(&[LinkInput::Object(main)], &LinkOptions::new("main", ["__halt".to_string()]))
                .unwrap();
        assert_eq!(img.intrinsics, vec!["__halt".to_string()]);
        assert!(matches!(
            img.funcs[0].body[0],
            RInstr::Call { target: CallTarget::Intrinsic(0), .. }
        ));
    }

    #[test]
    fn object_definition_overrides_runtime_symbol() {
        let main = func_obj("main.o", "main", 1, &["__halt"]);
        let own = func_obj("halt.o", "__halt", 9, &[]);
        let img = link(
            &[LinkInput::Object(main), LinkInput::Object(own)],
            &LinkOptions::new("main", ["__halt".to_string()]),
        )
        .unwrap();
        assert!(matches!(img.funcs[0].body[0], RInstr::Call { target: CallTarget::Func(_), .. }));
    }

    #[test]
    fn data_relocation_patches_function_address() {
        // A vtable-like data object holding a function pointer.
        let mut o = ObjectFile::new("vt.o");
        let f = o.add_symbol(Symbol::func("handler"));
        let v = o.add_symbol(Symbol::data("vtable"));
        o.funcs.push(FuncDef {
            sym: f,
            params: 0,
            nregs: 1,
            frame_size: 0,
            body: vec![Instr::Const { dst: 0, value: 5 }, Instr::Ret { value: Some(0) }],
        });
        o.data.push(DataDef {
            sym: v,
            init: vec![0; 8],
            zeroed: 0,
            relocs: vec![DataReloc { offset: 0, sym: f, addend: 0 }],
            align: 8,
        });
        let img = link(&[LinkInput::Object(o)], &LinkOptions::default()).unwrap();
        let vaddr = img.data_by_name("vtable").unwrap();
        let off = (vaddr - img.data_base) as usize;
        let ptr = u64::from_le_bytes(img.data[off..off + 8].try_into().unwrap());
        assert_eq!(img.func_at_addr(ptr), Some(0));
    }

    #[test]
    fn text_layout_is_aligned_and_sized() {
        let a = func_obj("a.o", "f", 1, &[]);
        let b = func_obj("b.o", "g", 2, &[]);
        let img =
            link(&[LinkInput::Object(a), LinkInput::Object(b)], &LinkOptions::default()).unwrap();
        for f in img.funcs.iter() {
            assert_eq!(f.addr % FUNC_ALIGN, 0);
            assert_eq!(f.size, f.instr_sizes.iter().map(|&s| s as u64).sum::<u64>());
            // instruction addresses are contiguous
            for i in 1..f.body.len() {
                assert_eq!(f.instr_addrs[i], f.instr_addrs[i - 1] + f.instr_sizes[i - 1] as u64);
            }
        }
        assert_eq!(img.text_size, 6 + 6);
        assert!(img.data_base >= TEXT_BASE);
        assert!(img.heap_base >= img.data_base);
    }

    #[test]
    fn default_layout_pins_historical_input_order_placement() {
        // Pin the exact placement the pre-strategy linker produced: input
        // order, each function aligned to FUNC_ALIGN. Each func_obj body
        // (Const + Ret) encodes to 6 bytes, so with 16-byte alignment the
        // three functions land at fixed, known addresses.
        let objs = [
            func_obj("a.o", "f", 1, &[]),
            func_obj("b.o", "g", 2, &[]),
            func_obj("c.o", "h", 3, &[]),
        ];
        let inputs: Vec<LinkInput> = objs.iter().cloned().map(LinkInput::Object).collect();
        let img = link(&inputs, &LinkOptions::default()).unwrap();
        let names: Vec<&str> = img.funcs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "g", "h"], "input order preserved");
        assert_eq!(
            img.funcs.iter().map(|f| f.addr).collect::<Vec<_>>(),
            vec![TEXT_BASE, TEXT_BASE + 16, TEXT_BASE + 32],
        );
        // An explicit InputOrder strategy is the same image, byte for byte
        // (Image's PartialEq compares every function body, address, datum,
        // and symbol).
        let explicit =
            link(&inputs, &LinkOptions::default().with_layout(crate::layout::Layout::InputOrder))
                .unwrap();
        assert_eq!(img, explicit);
    }

    #[test]
    fn profile_guided_layout_moves_cold_code_behind_hot() {
        use crate::layout::{Layout, LayoutProfile};
        // main calls hot; cold is linked between them in input order.
        let objs = [
            func_obj("main.o", "main", 1, &["hot"]),
            func_obj("cold.o", "cold", 2, &[]),
            func_obj("hot.o", "hot", 3, &[]),
        ];
        let inputs: Vec<LinkInput> = objs.iter().cloned().map(LinkInput::Object).collect();
        let mut p = LayoutProfile::default();
        p.record_edge("main", "hot", 100);
        p.record_func("main", 10);
        p.record_func("hot", 10);
        let img =
            link(&inputs, &LinkOptions::new("main", []).with_layout(Layout::ProfileGuided(p)))
                .unwrap();
        let names: Vec<&str> = img.funcs.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["main", "hot", "cold"], "hot pair adjacent, cold tail");
        // Same function set and sizes as the default layout, different order.
        let base = link(&inputs, &LinkOptions::new("main", [])).unwrap();
        let mut a: Vec<(String, u64)> =
            base.funcs.iter().map(|f| (f.name.clone(), f.size)).collect();
        let mut b: Vec<(String, u64)> =
            img.funcs.iter().map(|f| (f.name.clone(), f.size)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // The call still resolves to the right function.
        let main = img.entry.unwrap() as usize;
        assert!(matches!(
            img.funcs[main].body[0],
            RInstr::Call { target: CallTarget::Func(fi), .. }
                if img.funcs[fi as usize].name == "hot"
        ));
    }

    #[test]
    fn entry_must_be_defined_function() {
        let a = func_obj("a.o", "f", 1, &[]);
        let err = link(&[LinkInput::Object(a)], &LinkOptions::new("main", [])).unwrap_err();
        assert!(matches!(err, LinkError::NoEntry { .. }));
    }

    #[test]
    fn local_symbols_do_not_clash_across_objects() {
        // Two objects both defining a local (static) `helper` and a global
        // calling it: legal under ld, each resolves to its own copy.
        fn with_static(objname: &str, global: &str, ret: i64) -> ObjectFile {
            let mut o = ObjectFile::new(objname);
            let h = o.add_symbol(Symbol::local_func("helper"));
            let g = o.add_symbol(Symbol::func(global));
            o.funcs.push(FuncDef {
                sym: h,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![Instr::Const { dst: 0, value: ret }, Instr::Ret { value: Some(0) }],
            });
            o.funcs.push(FuncDef {
                sym: g,
                params: 0,
                nregs: 1,
                frame_size: 0,
                body: vec![
                    Instr::Call { dst: Some(0), target: h, args: vec![] },
                    Instr::Ret { value: Some(0) },
                ],
            });
            o
        }
        let img = link(
            &[
                LinkInput::Object(with_static("a.o", "fa", 10)),
                LinkInput::Object(with_static("b.o", "fb", 20)),
            ],
            &LinkOptions::default(),
        )
        .unwrap();
        assert_eq!(img.funcs.len(), 4);
        // fa's call goes to a.o's helper, fb's to b.o's.
        let fa = img.func_by_name("fa").unwrap() as usize;
        let fb = img.func_by_name("fb").unwrap() as usize;
        let target_of = |fi: usize| match img.funcs[fi].body[0] {
            RInstr::Call { target: CallTarget::Func(t), .. } => t as usize,
            _ => panic!("expected call"),
        };
        let ha = target_of(fa);
        let hb = target_of(fb);
        assert_ne!(ha, hb);
        assert!(matches!(img.funcs[ha].body[0], RInstr::Const { value: 10, .. }));
        assert!(matches!(img.funcs[hb].body[0], RInstr::Const { value: 20, .. }));
    }

    /// Keys for a memoized link, from each object's debug rendering.
    fn keys_of(objs: &[ObjectFile]) -> Vec<InputKey> {
        let h = |s: String| {
            s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1b3))
        };
        objs.iter()
            .map(|o| InputKey {
                symbols: h(format!("{:?}", o.symbols)),
                content: h(format!("{o:?}")),
            })
            .collect()
    }

    #[test]
    fn memoized_links_match_fresh_links_and_share_what_is_unchanged() {
        // main calls helper and takes g's address; data points at helper.
        let main = |ret: i64| {
            let mut o = func_obj("main.o", "main", ret, &["helper"]);
            let g = o.add_symbol(Symbol::undef("g"));
            o.funcs[0].body.insert(0, Instr::Addr { dst: 0, sym: g, offset: 0 });
            o
        };
        let helper = |ret: i64| func_obj("help.o", "helper", ret, &[]);
        let g = |extra: usize| {
            let mut o = func_obj("g.o", "g", 3, &[]);
            for _ in 0..extra {
                o.funcs[0].body.insert(0, Instr::Nop);
            }
            let h = o.add_symbol(Symbol::undef("helper"));
            let t = o.add_symbol(Symbol::data("table"));
            o.data.push(DataDef {
                sym: t,
                init: vec![0; 8],
                zeroed: 0,
                relocs: vec![DataReloc { offset: 0, sym: h, addend: 0 }],
                align: 8,
            });
            o
        };
        let opts = LinkOptions::new("main", ["__halt".to_string()]);
        let mut memo = LinkMemo::default();
        let steps: Vec<(Vec<ObjectFile>, bool)> = vec![
            (vec![main(1), g(0), helper(2)], false),
            // same-size body edit: resolution reused
            (vec![main(7), g(0), helper(2)], true),
            // g grows: helper moves, so main's Addr of g stays but the
            // table's pointer to helper and every later address move
            (vec![main(7), g(3), helper(2)], true),
            // a new undefined reference: the symbol table changed
            (vec![func_obj("main.o", "main", 1, &["helper", "__halt"]), g(3), helper(2)], false),
            (vec![func_obj("main.o", "main", 1, &["helper", "__halt"]), g(3), helper(5)], true),
        ];
        let mut last: Option<Image> = None;
        for (i, (objs, reused)) in steps.iter().enumerate() {
            let inputs: Vec<InputRef<'_>> =
                objs.iter().map(|o| InputRef::Object(o.view())).collect();
            let fresh = link_refs(&inputs, &opts).unwrap();
            let memoized = memo.link(&inputs, &keys_of(objs), &opts).unwrap();
            assert_eq!(memoized, fresh, "step {i}: memoized link differs");
            assert_eq!(memo.reused_resolution(), *reused, "step {i}: resolution reuse");
            if let (1, Some(prev)) = (i, &last) {
                // helper and g did not change or move: shared, not rebuilt
                assert!(Arc::ptr_eq(&memoized.funcs[2], &prev.funcs[2]));
                assert!(Arc::ptr_eq(&memoized.symbols, &prev.symbols));
                assert!(!Arc::ptr_eq(&memoized.funcs[0], &prev.funcs[0]));
            }
            last = Some(memoized);
        }
        // An archive input links in full and keeps nothing.
        let lib = Archive::from_members("lib.a", vec![helper(2)]);
        let objs = [main(1), g(0)];
        let inputs = [
            InputRef::Object(objs[0].view()),
            InputRef::Object(objs[1].view()),
            InputRef::Archive(&lib),
        ];
        let mut keys = keys_of(&objs);
        keys.push(InputKey { symbols: 0, content: 0 });
        assert_eq!(memo.link(&inputs, &keys, &opts).unwrap(), link_refs(&inputs, &opts).unwrap());
        assert!(!memo.reused_resolution());
    }
}
