//! End-to-end engine tests: marked output, multi-query programs,
//! parallel evaluation, benchmark-query semantics, and the `arb` CLI.

use arb::datagen::queries::{RandomPathQuery, R_BOTTOM_UP, R_INFIX};
use arb::datagen::{acgt_flat_tree, acgt_infix_tree, random_acgt, RegexShape};
use arb::tree::LabelTable;
use arb::Database;

/// Marked output reparses to the same document, and selected nodes carry
/// the mark.
#[test]
fn marked_output_reparses() {
    let xml = "<m><x>one</x><y><x/>two</y></m>";
    let mut db = Database::from_xml_str(xml).unwrap();
    let q = db.compile_xpath("//x").unwrap();
    let mut buf = Vec::new();
    let outcome = db.prepare(&[q]).run_marked(&mut buf).unwrap();
    assert_eq!(outcome.outcomes[0].stats.selected, 2);
    let out = String::from_utf8(buf).unwrap();
    assert_eq!(out.matches("arb:selected=\"true\"").count(), 2);
    // Strip marks; document must reparse to the same shape.
    let stripped = out.replace(" arb:selected=\"true\"", "");
    let mut lt1 = LabelTable::new();
    let t1 = arb::xml::str_to_tree(xml, &mut lt1).unwrap();
    let mut lt2 = LabelTable::new();
    let t2 = arb::xml::str_to_tree(&stripped, &mut lt2).unwrap();
    assert_eq!(t1.parts(), t2.parts());
}

/// The paper's §6.2 benchmark queries: ACGT-flat and ACGT-infix give the
/// same selected-node counts for the same regular expressions, because
/// both encode the same sequence (paper: "the average numbers of nodes
/// selected are – correctly – the same").
#[test]
fn flat_and_infix_select_equally() {
    let seq = random_acgt(9, 123);
    let mut flat_labels = LabelTable::new();
    let flat = acgt_flat_tree(&seq, &mut flat_labels);
    let mut infix_labels = LabelTable::new();
    let infix = acgt_infix_tree(&seq, &mut infix_labels);
    let mut flat_db = Database::from_tree(flat, flat_labels);
    let mut infix_db = Database::from_tree(infix, infix_labels);

    for (i, size) in [3usize, 5, 7].iter().enumerate() {
        let alphabet = ["A", "C", "G", "T"];
        for (j, q) in RandomPathQuery::batch(4, *size, &alphabet, RegexShape::Chars, 7 + i as u64)
            .into_iter()
            .enumerate()
        {
            let flat_q = flat_db.compile_tmnf(&q.to_program(R_BOTTOM_UP)).unwrap();
            let infix_src = RandomPathQuery {
                shape: RegexShape::Tags, // infix symbols are element tags
                ..q.clone()
            }
            .to_program(R_INFIX);
            let infix_q = infix_db.compile_tmnf(&infix_src).unwrap();
            let cf = flat_db.prepare(&[flat_q]).run_one().unwrap().stats.selected;
            let ci = infix_db
                .prepare(&[infix_q])
                .run_one()
                .unwrap()
                .stats
                .selected;
            assert_eq!(cf, ci, "query {j} of size {size}: {}", q.display());
        }
    }
}

/// Multi-query programs: per-predicate counts equal individual runs.
#[test]
fn multi_query_counts() {
    let xml = "<r><a><b/></a><b/><c><b/><a/></c></r>";
    let db = Database::from_xml_str(xml).unwrap();
    // Compile below the engine (whose optimizer prunes towards the single
    // default query predicate): declare all three query predicates first.
    let mut labels = db.labels().clone();
    let mut prog = arb::tmnf::compile(
        "Q0 :- V.Label[a]; Q1 :- V.Label[b]; Q2 :- V.Label[a].FirstChild;",
        &mut labels,
    )
    .unwrap();
    for name in ["Q0", "Q1", "Q2"] {
        prog.add_query_pred(prog.pred_id(name).unwrap());
    }
    let prog = arb::tmnf::optimize(&prog);
    let res = arb::core::evaluate_tree(&prog, &db.to_tree().unwrap());
    let count = |n: &str| res.extent(prog.pred_id(n).unwrap()).count();
    assert_eq!(count("Q0"), 2);
    assert_eq!(count("Q1"), 3);
    assert_eq!(count("Q2"), 1); // first child of an <a>: only <b/> under the first <a>
}

/// Parallel evaluation agrees with sequential on a balanced tree with a
/// branching query.
#[test]
fn parallel_equivalence_on_infix() {
    let seq = random_acgt(11, 5);
    let mut labels = LabelTable::new();
    let tree = acgt_infix_tree(&seq, &mut labels);
    let q = RandomPathQuery::batch(1, 6, &["A", "C", "G", "T"], RegexShape::Tags, 31)
        .pop()
        .unwrap();
    let src = q.to_program(R_INFIX);
    let mut db = Database::from_tree(tree.clone(), labels);
    let query = db.compile_tmnf(&src).unwrap();
    let session = db.prepare(std::slice::from_ref(&query));
    let seq_out = session.run_one().unwrap();
    let par = arb::core::evaluate_tree_parallel(query.program(), &tree, 4);
    assert_eq!(par.stats.selected, seq_out.stats.selected);
    // The same parallelism is reachable through the prepared surface.
    let par_opt = session
        .run_with(&arb::engine::EvalRequest::new().parallelism(4))
        .unwrap();
    assert_eq!(par_opt.outcomes[0].stats.selected, seq_out.stats.selected);
    assert_eq!(
        par_opt.outcomes[0].selected.to_vec(),
        seq_out.selected.to_vec()
    );
}

/// Boolean (document-filtering) queries: accept/reject by one scan.
#[test]
fn boolean_queries() {
    let xml = "<feed><item><spam/></item><item/></feed>";
    // In memory.
    let mut db = Database::from_xml_str(xml).unwrap();
    let q = db.compile_xpath("//feed[.//spam]").unwrap();
    assert!(db.prepare(&[q]).run_boolean().unwrap()[0]);
    let q = db.compile_xpath("//feed[not(.//spam)]").unwrap();
    assert!(!db.prepare(&[q]).run_boolean().unwrap()[0]);
    // On disk (single backward scan, no .sta file).
    let dir = std::env::temp_dir().join(format!("arb-bool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml_path = dir.join("b.xml");
    std::fs::write(&xml_path, xml).unwrap();
    let (mut disk, _) = Database::create_arb_from_xml(
        &xml_path,
        dir.join("b.arb"),
        &arb::xml::XmlConfig::default(),
    )
    .unwrap();
    let q = disk.compile_xpath("//feed[.//spam]").unwrap();
    assert!(disk.prepare(&[q]).run_boolean().unwrap()[0]);
    let q = disk
        .compile_tmnf(
            "HasSpam :- V.Label[spam].(invFirstChild|invSecondChild)*; QUERY :- HasSpam, Root;",
        )
        .unwrap();
    assert!(disk.prepare(&[q]).run_boolean().unwrap()[0]);
}

/// Attribute queries over an attributes-as-nodes database: `@name` steps
/// address the `@`-prefixed child elements the storage model creates.
#[test]
fn attribute_queries() {
    let xml = r#"<lib><book id="1" lang="en"/><book id="2"/></lib>"#;
    let mut labels = arb::tree::LabelTable::new();
    let config = arb::xml::XmlConfig {
        attributes_as_nodes: true,
        trim_whitespace_text: false,
    };
    let tree = arb::xml::to_tree(xml.as_bytes(), &config, &mut labels).unwrap();
    let mut db = Database::from_tree(tree, labels);

    let q = db.compile_xpath("//book[@lang]").unwrap();
    assert_eq!(db.prepare(&[q]).run_one().unwrap().stats.selected, 1);
    let q = db.compile_xpath("//book[@id]").unwrap();
    assert_eq!(db.prepare(&[q]).run_one().unwrap().stats.selected, 2);
    let q = db.compile_xpath("//book/@id").unwrap();
    assert_eq!(db.prepare(&[q]).run_one().unwrap().stats.selected, 2);
    // Attribute value via contains-text on the attribute node's chars.
    let q = db
        .compile_xpath("//book[@lang[contains-text(\"en\")]]")
        .unwrap();
    assert_eq!(db.prepare(&[q]).run_one().unwrap().stats.selected, 1);
}
