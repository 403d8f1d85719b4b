//! The experiment harness: prints the tables for every experiment in
//! DESIGN.md's index.
//!
//! Usage:
//!   experiments [--quick|--full] [E1 E5 ...]
//!
//! With no experiment ids, runs everything.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Full
    };
    let wanted: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_uppercase())
        .collect();
    let run_one = |id: &str| wanted.is_empty() || wanted.iter().any(|w| w == id);

    println!("xqr experiment harness ({scale:?} scale)\n");
    // Run individually so a single experiment can be selected without
    // paying for the others.
    use xqr_bench::experiments::*;
    type Runner = Box<dyn Fn(Scale) -> Table>;
    let runners: Vec<(&str, Runner)> = vec![
        ("E1", Box::new(e1_streaming)),
        ("E2", Box::new(e2_lazy)),
        ("E3", Box::new(e3_representation)),
        ("E4", Box::new(e4_pooling)),
        ("E5", Box::new(e5_structural_join)),
        ("E6", Box::new(e6_twig)),
        ("E7", Box::new(e7_rewrites)),
        ("E8", Box::new(e8_compile)),
        ("E9", Box::new(e9_transform)),
        ("E10", Box::new(e10_skip)),
        ("E11", Box::new(e11_nodeids)),
        ("E12", Box::new(e12_memo)),
    ];
    let mut ran = 0;
    for (id, f) in &runners {
        if run_one(id) {
            let table = f(scale);
            println!("{}", table.render());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no experiments matched; known ids: E1..E12");
        std::process::exit(2);
    }
}
