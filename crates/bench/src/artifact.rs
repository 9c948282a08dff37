//! The one artifact pipeline behind every `bench` subcommand.
//!
//! A drift-gated artifact (`BENCH_*.json`, `results.json`) is a pure
//! function of its spec, so every one of them goes through the same steps:
//! parse the flags, run, render the table, apply the semantic gates,
//! serialize, then either write the file or byte-compare it with the
//! checked-in copy. This module owns those steps once. A sweep implements
//! [`Artifact`] and supplies only what differs — its name and path, its
//! specs, `run`, its document header, its gates — plus one **field table**
//! ([`Field`]) naming each flat field of a point once. The JSON record, the
//! structural validation of a parsed document and the columns of the
//! markdown table are all derived from that table.

use std::collections::BTreeMap;

use serde_json::{Number, Value};

use crate::render;

/// How a field is read off a point — and thereby its JSON type.
pub enum Get<P> {
    /// A non-negative integer.
    Int(fn(&P) -> u64),
    /// A string.
    Str(fn(&P) -> String),
    /// A bool.
    Bool(fn(&P) -> bool),
    /// An integer or `null`.
    OptInt(fn(&P) -> Option<u64>),
    /// A nested array (its elements are the sweep's business).
    List(fn(&P) -> Vec<Value>),
}

impl<P> Get<P> {
    fn value(&self, p: &P) -> Value {
        match self {
            Get::Int(f) => f(p).into(),
            Get::Str(f) => f(p).into(),
            Get::Bool(f) => f(p).into(),
            Get::OptInt(f) => f(p).into(),
            Get::List(f) => Value::Array(f(p)),
        }
    }

    /// The name of this getter's JSON type if `v` is absent or not of it.
    fn mismatch(&self, v: Option<&Value>) -> Option<&'static str> {
        let (ok, type_name): (fn(&Value) -> bool, _) = match self {
            Get::Int(_) => (|v| v.as_u64().is_some(), "an integer"),
            Get::Str(_) => (|v| v.as_str().is_some(), "a string"),
            Get::Bool(_) => (|v| v.as_bool().is_some(), "a bool"),
            Get::OptInt(_) => (
                |v| v.is_null() || v.as_u64().is_some(),
                "an integer or null",
            ),
            Get::List(_) => (|v| v.as_array().is_some(), "an array"),
        };
        (!v.is_some_and(ok)).then_some(type_name)
    }
}

/// One entry of an artifact's field table.
pub struct Field<P> {
    /// JSON key; `None` for a derived, table-only column.
    key: Option<&'static str>,
    /// Markdown column header; `None` keeps the field out of the table.
    header: Option<&'static str>,
    get: Get<P>,
}

impl<P> Field<P> {
    fn new(key: &'static str, get: Get<P>) -> Self {
        Field {
            key: Some(key),
            header: None,
            get,
        }
    }

    /// An integer field.
    pub fn int(key: &'static str, f: fn(&P) -> u64) -> Self {
        Self::new(key, Get::Int(f))
    }

    /// A string field.
    pub fn str(key: &'static str, f: fn(&P) -> String) -> Self {
        Self::new(key, Get::Str(f))
    }

    /// A bool field.
    pub fn bool(key: &'static str, f: fn(&P) -> bool) -> Self {
        Self::new(key, Get::Bool(f))
    }

    /// An integer-or-`null` field.
    pub fn opt_int(key: &'static str, f: fn(&P) -> Option<u64>) -> Self {
        Self::new(key, Get::OptInt(f))
    }

    /// A nested-array field.
    pub fn list(key: &'static str, f: fn(&P) -> Vec<Value>) -> Self {
        Self::new(key, Get::List(f))
    }

    /// Also shows the field as a plain column of the markdown table.
    pub fn col(mut self, header: &'static str) -> Self {
        self.header = Some(header);
        self
    }

    /// A table-only column computed from the point (a unit suffix, a
    /// share, several fields in one cell); it has no JSON key.
    pub fn derived(header: &'static str, f: fn(&P) -> String) -> Self {
        Field {
            key: None,
            header: Some(header),
            get: Get::Str(f),
        }
    }
}

/// The JSON record of one point: every keyed field of the table.
pub fn record<P>(fields: &[Field<P>], p: &P) -> Value {
    Value::Object(
        fields
            .iter()
            .filter_map(|f| Some((f.key?.to_string(), f.get.value(p))))
            .collect(),
    )
}

/// The table of a sweep as rows: per point, one value per field with a
/// header, keyed by that header — what [`markdown`] draws.
pub fn columns<P>(fields: &[Field<P>], points: &[P]) -> Value {
    let row = |p: &P| {
        let cells = fields
            .iter()
            .filter_map(|f| Some((f.header?.to_string(), f.get.value(p))));
        Value::Object(cells.collect())
    };
    Value::Array(points.iter().map(row).collect())
}

/// A record as markdown — the text `bench tables` prints and a sweep's
/// table. A list of rows is one table; an object is a `| field | value |`
/// table of its fields (a nested object's under dotted names), then one
/// table per field that holds a list of rows, headed by the field's name.
/// Columns follow the record's key order, and [`render::table`] draws every
/// table. A row whose keys differ from the first row's is reported, never
/// drawn misaligned.
pub fn markdown(record: &Value) -> Result<String, String> {
    let Value::Object(map) = record else {
        return rows(record);
    };
    let (mut fields, mut lists) = (Vec::new(), String::new());
    flatten("", map, &mut fields, &mut lists)?;
    Ok(render::table(&["field", "value"], fields) + &lists)
}

fn is_rows(v: &Value) -> bool {
    v.as_array()
        .and_then(|items| items.first())
        .is_some_and(|first| first.as_object().is_some())
}

/// Splits an object into its field rows (nested objects under dotted
/// names) and the tables of its lists of rows.
fn flatten(
    prefix: &str,
    map: &BTreeMap<String, Value>,
    fields: &mut Vec<[String; 2]>,
    lists: &mut String,
) -> Result<(), String> {
    for (key, v) in map {
        let name = format!("{prefix}{key}");
        match v {
            Value::Object(inner) => flatten(&format!("{name}."), inner, fields, lists)?,
            _ if is_rows(v) => lists.push_str(&format!("\n{name}:\n\n{}", rows(v)?)),
            _ => fields.push([name, cell(v)]),
        }
    }
    Ok(())
}

/// A list of rows as one table whose columns are the first row's keys.
fn rows(v: &Value) -> Result<String, String> {
    let rows = v.as_array().filter(|_| is_rows(v));
    let rows = rows.ok_or_else(|| format!("not a record: {v}"))?;
    let columns: Vec<&String> = rows[0]
        .as_object()
        .into_iter()
        .flat_map(|m| m.keys())
        .collect();
    let mut cells = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let row = row
            .as_object()
            .filter(|m| m.keys().eq(columns.iter().copied()));
        let row = row.ok_or_else(|| format!("row {i} lacks the columns of row 0 {columns:?}"))?;
        cells.push(row.values().map(cell).collect::<Vec<_>>());
    }
    Ok(render::table(&columns, cells))
}

/// A value as cell text. A float keeps three significant digits, or all of
/// its integer digits when it has more — in the text only: the record keeps
/// every digit. `null` and an empty list read `—`; a list reads as its
/// items joined by `, `.
fn cell(v: &Value) -> String {
    match v {
        Value::Null => "—".into(),
        Value::String(s) => s.clone(),
        Value::Number(Number::F64(x)) if *x != 0.0 => {
            let decimals = 2 - x.abs().log10().floor() as i64;
            format!("{x:.prec$}", prec = decimals.max(0) as usize)
        }
        Value::Array(items) if items.is_empty() => "—".into(),
        Value::Array(items) => items.iter().map(cell).collect::<Vec<_>>().join(", "),
        other => other.to_string(),
    }
}

/// What a sweep supplies to the pipeline.
pub trait Artifact {
    /// The grid a run covers.
    type Spec;
    /// One measured cell.
    type Point;
    /// Subcommand name (`bench <NAME>`).
    const NAME: &'static str;
    /// The checked-in file.
    const PATH: &'static str;
    /// Key of the record list in the document.
    const LIST: &'static str;

    /// The checked-in artifact's grid.
    fn full_spec() -> Self::Spec;
    /// The CI-sized grid, for the artifacts that have one.
    fn smoke_spec() -> Option<Self::Spec> {
        None
    }
    /// Runs every cell, in spec order.
    fn run(spec: &Self::Spec) -> Vec<Self::Point>;
    /// The field table of a point.
    fn fields() -> Vec<Field<Self::Point>>;
    /// Everything in the document besides the record list (a JSON object).
    fn header(spec: &Self::Spec, points: &[Self::Point]) -> Value;
    /// Semantic acceptance gates on a sweep's points (empty = pass).
    fn gate(_points: &[Self::Point]) -> Vec<String> {
        Vec::new()
    }
}

/// The complete JSON document of a sweep: header plus one record per point.
pub fn document<A: Artifact>(spec: &A::Spec, points: &[A::Point]) -> Value {
    let Value::Object(mut doc) = A::header(spec, points) else {
        panic!("{}: the document header must be a JSON object", A::NAME);
    };
    let fields = A::fields();
    let records = points.iter().map(|p| record(&fields, p)).collect();
    doc.insert(A::LIST.to_string(), Value::Array(records));
    Value::Object(doc)
}

/// Structural validation of a parsed document against `want`, the document
/// this build generates for the same spec: every header entry must be
/// present and equal, the record list must have as many records, and every
/// record must carry exactly the keyed fields of the table, each with its
/// declared type. Returns the problems, each naming the offending field
/// (empty = valid).
pub fn validate<A: Artifact>(doc: &Value, want: &Value) -> Vec<String> {
    validate_with(&A::fields(), A::LIST, doc, want)
}

fn validate_with<P>(fields: &[Field<P>], list: &str, doc: &Value, want: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    for (key, value) in want.as_object().into_iter().flatten() {
        if key != list && doc.get(key) != Some(value) {
            problems.push(format!(
                "{key}: missing or differs from the regenerated value"
            ));
        }
    }
    let Some(records) = doc.get(list).and_then(Value::as_array) else {
        problems.push(format!("{list}: missing or not an array"));
        return problems;
    };
    let expected = want.get(list).and_then(Value::as_array).map_or(0, Vec::len);
    if records.len() != expected {
        problems.push(format!(
            "expected {expected} {list}, found {}",
            records.len()
        ));
    }
    for (i, r) in records.iter().enumerate() {
        for f in fields {
            let Some(key) = f.key else { continue };
            if let Some(type_name) = f.get.mismatch(r.get(key)) {
                problems.push(format!("{list}[{i}].{key}: missing or not {type_name}"));
            }
        }
        for key in r.as_object().into_iter().flat_map(|m| m.keys()) {
            if !fields.iter().any(|f| f.key == Some(key)) {
                problems.push(format!("{list}[{i}].{key}: not in the field table"));
            }
        }
    }
    problems
}

/// Why a subcommand did not succeed; `main` maps it to the exit code.
#[derive(Debug)]
pub enum Failure {
    /// The command line was wrong: print the message, exit 2.
    Usage(String),
    /// A gate failed or a checked-in file drifted: print each, exit 1.
    Failed(Vec<String>),
}

/// The parsed flags of one subcommand.
#[derive(Debug, Default)]
pub struct Args {
    /// `--check`: byte-compare with the checked-in file, write nothing.
    pub check: bool,
    /// `--smoke`: run the CI-sized grid.
    pub smoke: bool,
    /// `--list`: print the available ids and stop.
    pub list: bool,
    /// `--out <path>` (`--json <path>` for `tables`): where to write.
    pub out: Option<String>,
    /// `--exp <id>`: run this experiment only.
    pub exp: Option<String>,
}

/// Parses `argv` for the subcommand `name`, which accepts exactly the flags
/// in `accepted` — each entry the flag plus, if it takes one, its value's
/// placeholder (`"--out <path>"`), so the list doubles as the usage line. An
/// unknown flag or a flag missing its value is a usage error.
pub fn parse_args(name: &str, argv: &[String], accepted: &[&str]) -> Result<Args, Failure> {
    let mut args = Args::default();
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        if !accepted
            .iter()
            .any(|a| a.split(' ').next() == Some(flag.as_str()))
        {
            return Err(usage(name, accepted, &format!("unknown argument: {flag}")));
        }
        let mut value = || {
            rest.next()
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .ok_or_else(|| usage(name, accepted, &format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            "--list" => args.list = true,
            "--out" | "--json" => args.out = Some(value()?),
            "--exp" => args.exp = Some(value()?),
            other => unreachable!("{other} is accepted but not parsed"),
        }
    }
    Ok(args)
}

/// The usage error of the subcommand `name`, which accepts `accepted`.
pub fn usage(name: &str, accepted: &[&str], problem: &str) -> Failure {
    let flags = accepted.join("] [");
    Failure::Usage(format!("{problem}\nusage: bench {name} [{flags}]"))
}

/// The serialized form of every artifact: pretty JSON plus a final newline.
pub fn render(doc: &Value) -> String {
    format!(
        "{}\n",
        serde_json::to_string_pretty(doc).expect("serialize")
    )
}

/// Reads a checked-in artifact for `--check`.
pub fn read_checked_in(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::Failed(vec![format!("read {path}: {e}")]))
}

/// The byte compare behind every `--check`: `expected` is what the
/// checked-in file at `path` holds, `rendered` what this build generates.
pub fn compare(path: &str, expected: &str, rendered: &str, rerun: &str) -> Result<(), Failure> {
    if expected != rendered {
        return Err(Failure::Failed(vec![format!(
            "{path} drifted from the regenerated output — rerun `cargo run --release -p bench -- {rerun}`"
        )]));
    }
    eprintln!("{path} is current");
    Ok(())
}

/// Writes an artifact.
pub fn write(path: &str, rendered: &str) -> Result<(), Failure> {
    std::fs::write(path, rendered)
        .map_err(|e| Failure::Failed(vec![format!("write {path}: {e}")]))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// `bench <A::NAME>`: run → render → gate → serialize, then write the
/// artifact or, under `--check`, byte-compare it with the checked-in file.
pub fn run_artifact<A: Artifact>(argv: &[String]) -> Result<(), Failure> {
    let smoke = A::smoke_spec();
    let accepted: &[&str] = match smoke {
        Some(_) => &["--check", "--smoke", "--out <path>"],
        None => &["--check", "--out <path>"],
    };
    let args = parse_args(A::NAME, argv, accepted)?;
    let spec = smoke.filter(|_| args.smoke).unwrap_or_else(A::full_spec);
    let started = std::time::Instant::now();
    let points = A::run(&spec);
    let secs = started.elapsed().as_secs_f64();
    eprintln!("ran {} {} cells in {secs:.1}s", points.len(), A::NAME);
    let table = markdown(&columns(&A::fields(), &points));
    print!("{}", table.expect("every point has the same columns"));
    let problems = A::gate(&points);
    if !problems.is_empty() {
        return Err(Failure::Failed(problems));
    }
    let doc = document::<A>(&spec, &points);
    let rendered = render(&doc);
    let path = args.out.as_deref().unwrap_or(A::PATH);
    if !args.check {
        return write(path, &rendered);
    }
    // Smoke grids are not the checked-in artifact; `--smoke --check` only
    // verifies that the smoke sweep runs and passes the gates.
    if args.smoke {
        eprintln!("smoke sweep OK");
        return Ok(());
    }
    let on_disk = read_checked_in(path)?;
    let schema_problems = match serde_json::from_str(&on_disk) {
        Ok(disk_doc) => validate::<A>(&disk_doc, &doc),
        Err(_) => vec![format!("{path} is not valid JSON")],
    };
    for p in &schema_problems {
        eprintln!("checked-in schema problem: {p}");
    }
    compare(path, &on_disk, &rendered, A::NAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::Geo;
    use crate::latency::Latency;
    use crate::recovery::Recovery;
    use crate::throughput::Throughput;
    use serde_json::json;

    /// The first record of `doc`'s record list, for tampering.
    fn first_record<'a>(
        doc: &'a mut Value,
        list: &str,
    ) -> &'a mut std::collections::BTreeMap<String, Value> {
        let Value::Object(map) = doc else {
            panic!("document is an object")
        };
        let Some(Value::Array(records)) = map.get_mut(list) else {
            panic!("{list} is an array")
        };
        let Value::Object(record) = &mut records[0] else {
            panic!("records are objects")
        };
        record
    }

    /// The properties every artifact owes the drift gate, on its smoke grid
    /// where it has one: the sweep is a pure function of the spec, the
    /// fresh document passes its gates and validates after a round trip
    /// through text, and the validator names any single field that is
    /// deleted, retyped, or missing from the field table.
    fn check_artifact<A: Artifact>() {
        let name = A::NAME;
        let spec = A::smoke_spec().unwrap_or_else(A::full_spec);
        let points = A::run(&spec);
        let doc = document::<A>(&spec, &points);
        let text = render(&doc);
        assert_eq!(
            text,
            render(&document::<A>(&spec, &A::run(&spec))),
            "{name}: the same spec must serialize to the same bytes"
        );
        assert_eq!(A::gate(&points), Vec::<String>::new(), "{name}: gate");
        let parsed = serde_json::from_str(&text).expect("rendered artifact parses");
        assert_eq!(validate::<A>(&parsed, &doc), Vec::<String>::new(), "{name}");

        let keys: Vec<&str> = A::fields().iter().filter_map(|f| f.key).collect();
        assert!(!keys.is_empty());
        for key in keys {
            let named = |problems: Vec<String>, what: &str| {
                let prefix = format!("{}[0].{key}:", A::LIST);
                assert!(
                    problems.len() == 1 && problems[0].starts_with(&prefix),
                    "{name}: {what} {key} must be reported by name, got {problems:?}"
                );
            };
            let mut deleted = doc.clone();
            first_record(&mut deleted, A::LIST).remove(key);
            named(validate::<A>(&deleted, &doc), "deleting");
            // An empty object is the wrong type for every kind of field.
            let mut retyped = doc.clone();
            first_record(&mut retyped, A::LIST).insert(key.to_string(), serde_json::json!({}));
            named(validate::<A>(&retyped, &doc), "retyping");
            // Dropping the entry from the field table instead is reported
            // the same way, once per record.
            let mut fewer = A::fields();
            fewer.retain(|f| f.key != Some(key));
            let problems = validate_with(&fewer, A::LIST, &doc, &doc);
            assert_eq!(problems.len(), points.len(), "{name}: {problems:?}");
            assert_eq!(
                problems[0],
                format!("{}[0].{key}: not in the field table", A::LIST)
            );
        }

        // Header drift is named too.
        let mut drifted = doc.clone();
        let Value::Object(map) = &mut drifted else {
            panic!("document is an object")
        };
        let header_key = map
            .keys()
            .find(|k| *k != A::LIST)
            .expect("a header")
            .clone();
        map.insert(header_key.clone(), serde_json::json!("drifted"));
        assert_eq!(
            validate::<A>(&drifted, &doc),
            [format!(
                "{header_key}: missing or differs from the regenerated value"
            )]
        );
    }

    #[test]
    fn rows_become_one_table_in_key_order() {
        let rows = json!([json!({"b": "x", "a": 1u64}), json!({"a": 2u64, "b": "y"})]);
        assert_eq!(
            markdown(&rows).unwrap(),
            "| a | b |\n|---|---|\n| 1 | x |\n| 2 | y |\n"
        );
    }

    #[test]
    fn an_object_is_a_field_table_plus_one_table_per_list_of_rows() {
        let v = json!({
            "n": 3u64,
            "net": json!({"lan": true}),
            "tags": json!(["a", "b"]),
            "none": json!([]),
            "legs": json!([json!({"k": 1u64}), json!({"k": 2u64})]),
        });
        assert_eq!(
            markdown(&v).unwrap(),
            "| field | value |\n|---|---|\n| n | 3 |\n| net.lan | true |\n| none | — |\n\
             | tags | a, b |\n\nlegs:\n\n| k |\n|---|\n| 1 |\n| 2 |\n"
        );
    }

    #[test]
    fn rows_that_disagree_on_keys_are_reported() {
        let rows = json!([json!({"a": 1u64}), json!({"b": 1u64})]);
        let err = markdown(&rows).unwrap_err();
        assert_eq!(err, "row 1 lacks the columns of row 0 [\"a\"]");
        let extra = json!([json!({"a": 1u64}), json!({"a": 1u64, "b": 2u64})]);
        assert!(markdown(&json!({ "legs": extra })).is_err());
        assert!(markdown(&json!(7u64)).is_err(), "a scalar is not a record");
    }

    #[test]
    fn a_pipe_inside_a_record_cell_is_escaped() {
        let md = markdown(&json!([json!({"config": "majority |Q1|=|Q2|=4 (n=7)"})])).unwrap();
        assert_eq!(
            md,
            "| config |\n|---|\n| majority \\|Q1\\|=\\|Q2\\|=4 (n=7) |\n"
        );
    }

    #[test]
    fn floats_are_rounded_in_the_text_only() {
        let v = json!({
            "rate": 0.05319148936170213,
            "lat": 13666.666666666666,
            "msgs": 29.0,
            "share": 79.83870967741936,
            "zero": 0.0,
            "n": 7u64,
        });
        let md = markdown(&v).unwrap();
        for row in [
            "| rate | 0.0532 |",
            "| lat | 13667 |",
            "| msgs | 29.0 |",
            "| share | 79.8 |",
            "| zero | 0.0 |",
            "| n | 7 |",
        ] {
            assert!(md.contains(row), "{row} not in\n{md}");
        }
        let json = serde_json::to_string(&v).unwrap();
        assert!(json.contains("0.05319148936170213") && json.contains("13666.666666666666"));
    }

    #[test]
    fn every_artifact_is_deterministic_valid_and_names_drifted_fields() {
        check_artifact::<Throughput>();
        check_artifact::<Latency>();
        check_artifact::<Recovery>();
        check_artifact::<Geo>();
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_misuse_is_a_usage_error() {
        let all = ["--check", "--smoke", "--out <path>", "--exp <id>", "--list"];
        let args = parse_args(
            "x",
            &argv(&["--check", "--out", "f.json", "--exp", "f9"]),
            &all,
        )
        .expect("well-formed flags");
        assert!(args.check && !args.smoke && !args.list);
        assert_eq!(args.out.as_deref(), Some("f.json"));
        assert_eq!(args.exp.as_deref(), Some("f9"));
        for bad in [
            &["--out"][..],
            &["--exp", "--check"],
            &["--frobnicate"],
            &["stray"],
        ] {
            let outcome = parse_args("x", &argv(bad), &all);
            assert!(
                matches!(outcome, Err(Failure::Usage(_))),
                "{bad:?}: {outcome:?}"
            );
        }
        // A flag another subcommand owns is unknown here.
        let outcome = parse_args(
            "recovery",
            &argv(&["--smoke"]),
            &["--check", "--out <path>"],
        );
        assert!(matches!(outcome, Err(Failure::Usage(_))), "{outcome:?}");
    }
}
