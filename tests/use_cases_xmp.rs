//! The W3C "XML Query Use Cases" XMP suite (the canonical examples the
//! talk's audience knew by heart), run against the spec's bib.xml /
//! reviews.xml sample data. Queries adapted only where they use features
//! outside our documented subset.

mod common;

use common::both_legs;
use xqr::{DynamicContext, Engine};

const BIB: &str = r#"<bib>
    <book year="1994">
        <title>TCP/IP Illustrated</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
    </book>
    <book year="1992">
        <title>Advanced Programming in the Unix environment</title>
        <author><last>Stevens</last><first>W.</first></author>
        <publisher>Addison-Wesley</publisher>
        <price>65.95</price>
    </book>
    <book year="2000">
        <title>Data on the Web</title>
        <author><last>Abiteboul</last><first>Serge</first></author>
        <author><last>Buneman</last><first>Peter</first></author>
        <author><last>Suciu</last><first>Dan</first></author>
        <publisher>Morgan Kaufmann Publishers</publisher>
        <price>39.95</price>
    </book>
    <book year="1999">
        <title>The Economics of Technology and Content for Digital TV</title>
        <editor><last>Gerbarg</last><first>Darcy</first><affiliation>CITI</affiliation></editor>
        <publisher>Kluwer Academic Publishers</publisher>
        <price>129.95</price>
    </book>
</bib>"#;

const REVIEWS: &str = r#"<reviews>
    <entry>
        <title>Data on the Web</title>
        <price>34.95</price>
        <review>A very good discussion of semi-structured database systems and XML.</review>
    </entry>
    <entry>
        <title>Advanced Programming in the Unix environment</title>
        <price>65.95</price>
        <review>A clear and detailed discussion of UNIX programming.</review>
    </entry>
    <entry>
        <title>TCP/IP Illustrated</title>
        <price>65.95</price>
        <review>One of the best books on TCP/IP.</review>
    </entry>
</reviews>"#;

fn engine() -> Engine {
    let engine = Engine::new();
    engine.load_document("bib.xml", BIB).unwrap();
    engine.load_document("reviews.xml", REVIEWS).unwrap();
    engine
}

fn run(q: &str) -> String {
    let e = engine();
    let prepared = e
        .compile(q)
        .unwrap_or_else(|err| panic!("compile: {err}\n{q}"));
    both_legs(&e, &prepared, &DynamicContext::new()).unwrap_or_else(|err| panic!("run: {err}\n{q}"))
}

#[test]
fn q1_books_by_publisher_after_year() {
    // XMP Q1: books published by Addison-Wesley after 1991.
    let out = run(r#"
        <bib>{
          for $b in doc("bib.xml")/bib/book
          where $b/publisher = "Addison-Wesley" and $b/@year > 1991
          return <book year="{$b/@year}">{$b/title}</book>
        }</bib>
    "#);
    assert_eq!(
        out,
        r#"<bib><book year="1994"><title>TCP/IP Illustrated</title></book><book year="1992"><title>Advanced Programming in the Unix environment</title></book></bib>"#
    );
}

#[test]
fn q2_flat_title_author_pairs() {
    // XMP Q2: (title, author) pairs.
    let out = run(r#"
        <results>{
          for $b in doc("bib.xml")/bib/book, $t in $b/title, $a in $b/author
          return <result>{$t}{$a}</result>
        }</results>
    "#);
    assert_eq!(out.matches("<result>").count(), 5); // 2×Stevens + 3 for Data on the Web
    assert!(out.contains("<last>Suciu</last>"));
}

#[test]
fn q3_title_with_all_authors() {
    // XMP Q3: each title with its authors grouped.
    let out = run(r#"
        <results>{
          for $b in doc("bib.xml")/bib/book
          return <result>{$b/title}{$b/author}</result>
        }</results>
    "#);
    assert_eq!(out.matches("<result>").count(), 4);
    // Data on the Web keeps 3 authors in one result.
    let data = out
        .split("<result>")
        .find(|s| s.contains("Data on the Web"))
        .unwrap();
    assert_eq!(data.matches("<author>").count(), 3);
}

#[test]
fn q4_author_with_all_titles() {
    // XMP Q4: invert the relationship — authors with their titles.
    let out = run(r#"
        <results>{
          for $last in distinct-values(doc("bib.xml")//author/last)
          order by $last
          return
            <result>
              <author>{$last}</author>
              {
                for $b in doc("bib.xml")/bib/book
                where $b/author/last = $last
                return $b/title
              }
            </result>
        }</results>
    "#);
    let stevens = out
        .split("<result>")
        .find(|s| s.contains("Stevens"))
        .unwrap();
    assert_eq!(stevens.matches("<title>").count(), 2);
}

#[test]
fn q5_join_with_reviews() {
    // XMP Q5: join bib and reviews on title.
    let out = run(r#"
        <books-with-prices>{
          for $b in doc("bib.xml")//book, $a in doc("reviews.xml")//entry
          where $b/title = $a/title
          return
            <book-with-prices>
              {$b/title}
              <price-review>{string($a/price)}</price-review>
              <price-bib>{string($b/price)}</price-bib>
            </book-with-prices>
        }</books-with-prices>
    "#);
    assert_eq!(out.matches("<book-with-prices>").count(), 3);
    assert!(out.contains("<price-review>34.95</price-review>"));
}

#[test]
fn q6_books_with_min_authors() {
    // XMP Q6: titles of books with more than one author — plus the count.
    let out = run(r#"
        for $b in doc("bib.xml")//book
        where count($b/author) > 0
        return
          <book>
            {$b/title}
            {for $a in $b/author[position() le 2] return $a}
            {if (count($b/author) > 2) then <et-al/> else ()}
          </book>
    "#);
    assert_eq!(out.matches("<book>").count(), 3);
    assert_eq!(out.matches("<et-al/>").count(), 1);
}

#[test]
fn q10_prices_by_title() {
    // XMP Q10: minimum price per title across both sources.
    let out = run(r#"
        <results>{
          let $doc := (doc("bib.xml")//price, doc("reviews.xml")//price)
          for $t in distinct-values(doc("reviews.xml")//title)
          let $p := (doc("bib.xml")//book[title = $t]/price,
                     doc("reviews.xml")//entry[title = $t]/price)
          order by $t
          return <minprice title="{$t}">{min(for $x in $p return number($x))}</minprice>
        }</results>
    "#);
    assert!(
        out.contains(r#"<minprice title="Data on the Web">34.95</minprice>"#),
        "{out}"
    );
    assert_eq!(out.matches("<minprice").count(), 3);
}

#[test]
fn q11_books_or_editors() {
    // XMP Q11: books have authors, monographs have editors.
    let out = run(r#"
        <bib>{
          for $b in doc("bib.xml")//book[editor]
          return <reference>{$b/title}{string($b/editor/affiliation)}</reference>
        }</bib>
    "#);
    assert_eq!(out.matches("<reference>").count(), 1);
    assert!(out.contains("CITI"));
}

#[test]
fn q12_same_author_pairs() {
    // XMP Q12: pairs of books with exactly the same author set (here:
    // the two Stevens books find each other).
    let out = run(r#"
        <bib>{
          for $book1 in doc("bib.xml")//book, $book2 in doc("bib.xml")//book
          let $aut1 := for $a in $book1/author order by $a/last, $a/first return string($a/last)
          let $aut2 := for $a in $book2/author order by $a/last, $a/first return string($a/first)
          where $book1 << $book2
            and count($book1/author) = count($book2/author)
            and count($book1/author) > 0
            and deep-equal($book1/author, $book2/author)
          return <book-pair>{$book1/title}{$book2/title}</book-pair>
        }</bib>
    "#);
    assert_eq!(out.matches("<book-pair>").count(), 1, "{out}");
    assert!(out.contains("TCP/IP Illustrated"));
    assert!(out.contains("Unix environment"));
}
