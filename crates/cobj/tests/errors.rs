//! Error-identity pins for the linker and `objcopy`.
//!
//! When several things are wrong at once, *which* error is reported — and
//! which names and objects it carries — is observable output: it reaches
//! users as a diagnostic. These tests pin that choice for every linker and
//! rename failure mode, so a change of the resolution tables' data
//! structures cannot silently change the report.

use std::collections::BTreeMap;

use cobj::ir::Instr;
use cobj::object::{DataDef, DataReloc, FuncDef, ObjectFile, Symbol};
use cobj::{link, objcopy, Archive, LinkError, LinkInput, LinkOptions, ObjectError};

/// An object defining each of `defs` as a function that calls every name
/// in `calls` (declared undefined unless also defined here).
fn obj(name: &str, defs: &[&str], calls: &[&str]) -> ObjectFile {
    let mut o = ObjectFile::new(name);
    let ids: Vec<_> = defs.iter().map(|d| o.add_symbol(Symbol::func(*d))).collect();
    let targets: Vec<_> = calls
        .iter()
        .map(|c| o.find_symbol(c).unwrap_or_else(|| o.add_symbol(Symbol::undef(*c))))
        .collect();
    for id in ids {
        let mut body: Vec<Instr> =
            targets.iter().map(|&t| Instr::Call { dst: None, target: t, args: vec![] }).collect();
        body.push(Instr::Ret { value: None });
        o.funcs.push(FuncDef { sym: id, params: 0, nregs: 1, frame_size: 0, body });
    }
    o
}

/// An object defining `name` as an 8-byte data item.
fn data_obj(objname: &str, name: &str) -> ObjectFile {
    let mut o = ObjectFile::new(objname);
    let d = o.add_symbol(Symbol::data(name));
    o.data.push(DataDef { sym: d, init: vec![0; 8], zeroed: 0, relocs: vec![], align: 8 });
    o
}

fn objects(objs: Vec<ObjectFile>) -> Vec<LinkInput> {
    objs.into_iter().map(LinkInput::Object).collect()
}

fn names(img: &cobj::Image) -> Vec<&str> {
    img.funcs.iter().map(|f| f.name.as_str()).collect()
}

#[test]
fn multiple_definition_reports_first_colliding_symbol_in_table_order() {
    // c.o's symbol table lists `g` before `f`; both collide. The report
    // names `g`, with the object that defined it first.
    let inputs = objects(vec![
        obj("a.o", &["f"], &[]),
        obj("b.o", &["g"], &[]),
        obj("c.o", &["g", "f"], &[]),
    ]);
    assert_eq!(
        link(&inputs, &LinkOptions::default()).unwrap_err(),
        LinkError::MultipleDefinition {
            name: "g".into(),
            first: "b.o".into(),
            second: "c.o".into()
        }
    );
    // A function and a data item of one name collide just the same.
    let inputs = objects(vec![data_obj("d.o", "x"), obj("e.o", &["x"], &[])]);
    assert_eq!(
        link(&inputs, &LinkOptions::default()).unwrap_err(),
        LinkError::MultipleDefinition {
            name: "x".into(),
            first: "d.o".into(),
            second: "e.o".into()
        }
    );
}

#[test]
fn undefined_reference_reports_lexicographically_first_name() {
    // Missing names in reference order: zeta, mid, alpha. `later` is
    // referenced before it is defined, so it is not missing; `__halt` is a
    // runtime symbol.
    let inputs = objects(vec![
        obj("one.o", &["main"], &["zeta", "later", "alpha"]),
        obj("two.o", &["two"], &["mid", "__halt"]),
        obj("three.o", &["later"], &["alpha", "zeta"]),
        obj("four.o", &["four"], &["mid"]),
    ]);
    let err = link(&inputs, &LinkOptions::new("main", ["__halt".to_string()])).unwrap_err();
    assert_eq!(
        err,
        LinkError::UndefinedReference {
            name: "alpha".into(),
            referenced_from: vec!["one.o".into(), "three.o".into()],
        }
    );
    // Defining `alpha` moves the report to the next name, `mid`.
    let mut inputs = inputs;
    inputs.push(LinkInput::Object(obj("five.o", &["alpha"], &[])));
    assert_eq!(
        link(&inputs, &LinkOptions::new("main", ["__halt".to_string()])).unwrap_err(),
        LinkError::UndefinedReference {
            name: "mid".into(),
            referenced_from: vec!["two.o".into(), "four.o".into()],
        }
    );
}

#[test]
fn kind_mismatch_reports_first_bad_call_in_layout_order() {
    // Both a.o and b.o call data symbols; a.o is laid out first, and its
    // first bad call targets `v1`.
    let inputs = objects(vec![
        obj("a.o", &["main"], &["v1", "v2"]),
        obj("b.o", &["other"], &["v2"]),
        data_obj("v1.o", "v1"),
        data_obj("v2.o", "v2"),
    ]);
    assert_eq!(
        link(&inputs, &LinkOptions::new("main", [])).unwrap_err(),
        LinkError::KindMismatch { name: "v1".into(), from: "a.o".into() }
    );
}

#[test]
fn entry_must_name_a_defined_function() {
    let inputs = objects(vec![obj("a.o", &["f"], &[]), data_obj("d.o", "table")]);
    assert_eq!(
        link(&inputs, &LinkOptions::new("table", [])).unwrap_err(),
        LinkError::NoEntry { name: "table".into() }
    );
    assert_eq!(
        link(&inputs, &LinkOptions::new("main", [])).unwrap_err(),
        LinkError::NoEntry { name: "main".into() }
    );
    // A local function is not a valid entry either.
    let mut o = ObjectFile::new("s.o");
    let s = o.add_symbol(Symbol::local_func("main"));
    o.funcs.push(FuncDef {
        sym: s,
        params: 0,
        nregs: 0,
        frame_size: 0,
        body: vec![Instr::Ret { value: None }],
    });
    assert_eq!(
        link(&[LinkInput::Object(o)], &LinkOptions::new("main", [])).unwrap_err(),
        LinkError::NoEntry { name: "main".into() }
    );
}

#[test]
fn invalid_object_is_reported_before_its_symbols_are_resolved() {
    // b.o both fails validation and redefines `f`: validation comes first.
    let mut bad = obj("b.o", &["f"], &[]);
    bad.add_symbol(Symbol::func("orphan"));
    let inputs = objects(vec![obj("a.o", &["f"], &[]), bad]);
    assert_eq!(
        link(&inputs, &LinkOptions::default()).unwrap_err(),
        LinkError::BadObject(ObjectError::MissingBody {
            object: "b.o".into(),
            name: "orphan".into()
        })
    );
}

#[test]
fn archive_members_are_pulled_in_scan_order_until_fixpoint() {
    // main needs a; a needs c; c needs b. Members are scanned in order and
    // a pull is visible to the members after it in the same scan, so the
    // first scan pulls a then c, the second scan pulls b. `unused` stays
    // out, and `override_c` never sees `c` undefined.
    let lib = Archive::from_members(
        "lib.a",
        vec![
            obj("b.o", &["b"], &[]),
            obj("a.o", &["a"], &["c"]),
            obj("unused.o", &["unused"], &[]),
            obj("c.o", &["c"], &["b"]),
            obj("override_c.o", &["c", "d"], &[]),
        ],
    );
    let inputs = vec![LinkInput::Object(obj("main.o", &["main"], &["a"])), LinkInput::Archive(lib)];
    let img = link(&inputs, &LinkOptions::new("main", [])).unwrap();
    assert_eq!(names(&img), ["main", "a", "c", "b"]);

    // An explicit object placed before the archive overrides a member.
    let lib = Archive::from_members(
        "lib.a",
        vec![obj("real.o", &["putc"], &[]), obj("helper.o", &["helper"], &[])],
    );
    let inputs = vec![
        LinkInput::Object(obj("main.o", &["main"], &["putc", "helper"])),
        LinkInput::Object(obj("mine.o", &["putc"], &[])),
        LinkInput::Archive(lib),
    ];
    let img = link(&inputs, &LinkOptions::new("main", [])).unwrap();
    assert_eq!(names(&img), ["main", "putc", "helper"]);

    // A member pulled for one name that redefines an already-defined name
    // is a multiple definition naming the member.
    let lib = Archive::from_members("lib.a", vec![obj("both.o", &["x", "main"], &[])]);
    let inputs = vec![LinkInput::Object(obj("main.o", &["main"], &["x"])), LinkInput::Archive(lib)];
    assert_eq!(
        link(&inputs, &LinkOptions::default()).unwrap_err(),
        LinkError::MultipleDefinition {
            name: "main".into(),
            first: "main.o".into(),
            second: "both.o".into()
        }
    );
}

#[test]
fn image_symbols_are_sorted_and_data_relocations_resolve() {
    let mut o = obj("m.o", &["zmain", "amid"], &["ext"]);
    let tab = o.add_symbol(Symbol::data("table"));
    let f = o.find_symbol("amid").unwrap();
    o.data.push(DataDef {
        sym: tab,
        init: vec![0; 16],
        zeroed: 8,
        relocs: vec![DataReloc { offset: 8, sym: f, addend: 4 }],
        align: 8,
    });
    let inputs = vec![LinkInput::Object(o), LinkInput::Object(obj("e.o", &["ext"], &[]))];
    let img = link(&inputs, &LinkOptions::new("zmain", [])).unwrap();
    let keys: Vec<&str> = img.symbols.keys().map(String::as_str).collect();
    assert_eq!(keys, ["amid", "ext", "table", "zmain"]);
    let at = (img.data_by_name("table").unwrap() - img.data_base) as usize + 8;
    let ptr = u64::from_le_bytes(img.data[at..at + 8].try_into().unwrap());
    assert_eq!(ptr, img.funcs[img.func_by_name("amid").unwrap() as usize].addr + 4);
}

fn map(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

#[test]
fn rename_no_such_symbol_reports_first_missing_key() {
    let mut o = obj("u.o", &["f"], &["g"]);
    let h = o.add_symbol(Symbol::local_func("hidden"));
    o.funcs.push(FuncDef {
        sym: h,
        params: 0,
        nregs: 0,
        frame_size: 0,
        body: vec![Instr::Ret { value: None }],
    });
    // Missing keys `zz` and `aa`: the map's first key is reported.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("zz", "x"), ("f", "f1"), ("aa", "y")])).unwrap_err(),
        ObjectError::NoSuchSymbol { object: "u.o".into(), name: "aa".into() }
    );
    // Local symbols are not link-visible, so they cannot be renamed.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("hidden", "x")])).unwrap_err(),
        ObjectError::NoSuchSymbol { object: "u.o".into(), name: "hidden".into() }
    );
    // A valid rename touches definitions and references, never locals.
    let r = objcopy::rename_symbols(&o, &map(&[("f", "f_i1"), ("g", "g_i2")])).unwrap();
    let got: Vec<&str> = r.symbols.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(got, ["f_i1", "g_i2", "hidden"]);
    assert_eq!(r.funcs, o.funcs);
}

#[test]
fn rename_collision_reports_the_later_symbol() {
    let o = obj("u.o", &["a", "b"], &["c", "d"]);
    // Two definitions onto one name: reported on the second entry.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("a", "x"), ("b", "x")])).unwrap_err(),
        ObjectError::RenameCollision { object: "u.o".into(), name: "x".into() }
    );
    // A reference renamed onto a definition's name would self-satisfy.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("d", "a")])).unwrap_err(),
        ObjectError::RenameCollision { object: "u.o".into(), name: "a".into() }
    );
    // A definition renamed onto an untouched reference's name, too.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("b", "c")])).unwrap_err(),
        ObjectError::RenameCollision { object: "u.o".into(), name: "c".into() }
    );
    // The first collision in symbol order wins over a later one.
    assert_eq!(
        objcopy::rename_symbols(&o, &map(&[("b", "a"), ("d", "c")])).unwrap_err(),
        ObjectError::RenameCollision { object: "u.o".into(), name: "a".into() }
    );
    // Two references onto one name are fine (both wired to one provider).
    let r = objcopy::rename_symbols(&o, &map(&[("c", "p"), ("d", "p")])).unwrap();
    let got: Vec<&str> = r.symbols.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(got, ["a", "b", "p", "p"]);
}
