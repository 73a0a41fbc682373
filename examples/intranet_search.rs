//! Intranet-search scenario: distance-ranked retrieval (paper §5).
//!
//! The paper's motivating application is the XXL search engine: a query
//! like `//~book//author` should rank an `author` right below a `book`
//! higher than one that is ten links away. This example builds a
//! distance-aware engine over a small synthetic "intranet" of linked
//! department pages and runs a ranked structural query.
//!
//! ```sh
//! cargo run --example intranet_search
//! ```

use hopi::prelude::*;

fn main() -> Result<(), HopiError> {
    // A mini intranet: a portal page linking to departments, which link to
    // project pages with authors at various depths.
    let hopi = Hopi::builder().distance_aware(true).parse([
        (
            "portal",
            r#"<site>
                     <nav>
                       <link xlink:href="db-group"/>
                       <link xlink:href="systems-group"/>
                     </nav>
                   </site>"#,
        ),
        (
            "db-group",
            r#"<group>
                     <book id="hopi-book">
                       <chapter><author id="schenkel"/></chapter>
                     </book>
                     <projects><link xlink:href="xxl-project"/></projects>
                   </group>"#,
        ),
        (
            "systems-group",
            r#"<group>
                     <book id="sys-book">
                       <refs><link xlink:href="xxl-project"/></refs>
                     </book>
                   </group>"#,
        ),
        (
            "xxl-project",
            r#"<project>
                     <team>
                       <member><author id="theobald"/></member>
                       <lead><deputy><author id="weikum"/></deputy></lead>
                     </team>
                   </project>"#,
        ),
    ])?;

    let stats = hopi.stats();
    println!(
        "distance-aware engine: {} cover entries (+{} distance entries) over {} elements",
        stats.cover_entries,
        stats.distance_entries.unwrap_or(0),
        stats.elements
    );

    // The structural query //book//author with link traversal, ranked by
    // link distance (XXL-style decaying score: closer matches rank higher).
    // `query_ranked` returns every match, best first; show the top ten.
    let mut results = hopi.query_ranked("//book//author")?;
    results.truncate(10);
    println!("\n//book//author matches, ranked by link distance:");
    for m in &results {
        println!(
            "  dist {:>2}: author {}  (score {:.2})",
            m.distance,
            describe(&hopi, m.element),
            m.score()
        );
    }

    // The direct (book → chapter → author) match must rank first.
    let schenkel = hopi.resolve("db-group", "schenkel")?;
    assert_eq!(results.first().map(|m| m.element), Some(schenkel));
    assert_eq!(results[0].distance, 2);

    // Authors reached only over project links rank lower but are found.
    let theobald = hopi.resolve("xxl-project", "theobald")?;
    assert!(results
        .iter()
        .any(|m| m.element == theobald && m.distance > 2));

    // Point distances come from the same engine (§5.1's
    // MIN(LOUT.DIST + LIN.DIST) query shape).
    let hopi_book = hopi.resolve("db-group", "hopi-book")?;
    assert_eq!(hopi.distance(hopi_book, schenkel)?, Some(2));
    let sys_book = hopi.resolve("systems-group", "sys-book")?;
    assert_eq!(hopi.distance(schenkel, sys_book)?, None);
    println!("\npoint distances agree: book → schenkel = 2 links ✓");
    Ok(())
}

fn describe(hopi: &Hopi, e: u32) -> String {
    let (d, local) = hopi.collection().to_local(e).expect("live element");
    let doc = hopi.collection().document(d).expect("live doc");
    format!("{}/{}#{}", doc.name, doc.element(local).tag, local)
}
