//! Reader/writer for the Solomon benchmark file format.
//!
//! The classic Solomon and the extended Gehring–Homberger instances are
//! plain-text files of the shape:
//!
//! ```text
//! R101
//!
//! VEHICLE
//! NUMBER     CAPACITY
//!   25         200
//!
//! CUSTOMER
//! CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
//!     0      35         35          0          0       230          0
//!     1      41         49         10        161       171         10
//!     ...
//! ```
//!
//! The paper's experiments use the 400- and 600-city extended Solomon sets;
//! this parser lets the real files be dropped into the harness when
//! available, while [`crate::generator`] produces statistically equivalent
//! instances otherwise (see DESIGN.md, *Substitutions*).

use crate::model::{Customer, Instance};
use std::fmt::Write as _;
use std::path::Path;

/// Column names of the customer table, indexed like the parsed fields.
const CUSTOMER_FIELDS: [&str; 7] = [
    "CUST NO.",
    "XCOORD.",
    "YCOORD.",
    "DEMAND",
    "READY TIME",
    "DUE DATE",
    "SERVICE TIME",
];

/// The most sites — depot included — [`parse`] accepts: 1,000 customers,
/// the largest Gehring–Homberger size, plus the depot. [`Instance::new`]
/// allocates an `n × n` distance matrix, so the cap bounds what any
/// parsed text can ask for at 1,001² `f64`s (≈ 8 MB), however many
/// customer lines it holds.
pub const MAX_SITES: usize = 1_001;

/// Errors produced while parsing a Solomon-format file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the error was detected on (0 = whole file).
    pub line: usize,
    /// Offending column of the customer/vehicle table, when the error is
    /// attributable to one (e.g. `"DEMAND"`, `"CAPACITY"`).
    pub field: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field {
            Some(field) => write!(f, "line {}, field {}: {}", self.line, field, self.message),
            None => write!(f, "line {}: {}", self.line, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        field: None,
        message: message.into(),
    }
}

fn err_field(line: usize, field: &'static str, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        field: Some(field),
        message: message.into(),
    }
}

/// Parses an instance from Solomon-format text.
///
/// The parser is deliberately tolerant of column widths and blank lines —
/// the historical files are inconsistently formatted — but strict about
/// content: it requires the vehicle block, at least a depot and one
/// customer, and runs [`Instance::validate`] on the result. Hostile text
/// gets an `Err`, never a panic: numbers must be finite, and more than
/// [`MAX_SITES`] sites are refused before anything is allocated for them.
pub fn parse(text: &str) -> Result<Instance, ParseError> {
    let mut name = String::new();
    let mut capacity: Option<(usize, f64)> = None;
    let mut sites: Vec<Customer> = Vec::new();
    let mut in_vehicle = false;
    let mut in_customer = false;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if name.is_empty() && !in_vehicle && !in_customer {
            name = line.to_string();
            continue;
        }
        if upper.starts_with("VEHICLE") {
            in_vehicle = true;
            in_customer = false;
            continue;
        }
        if upper.starts_with("CUSTOMER") {
            in_customer = true;
            in_vehicle = false;
            continue;
        }
        if upper.contains("NUMBER") || upper.contains("CUST NO") {
            continue; // column headers
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if in_vehicle {
            if fields.len() != 2 {
                return Err(err(
                    lineno,
                    format!("expected `NUMBER CAPACITY`, got {line:?}"),
                ));
            }
            let number: usize = fields[0].parse().map_err(|_| {
                err_field(
                    lineno,
                    "NUMBER",
                    format!("bad vehicle count {:?}", fields[0]),
                )
            })?;
            let cap: f64 = fields[1].parse().map_err(|_| {
                err_field(lineno, "CAPACITY", format!("bad capacity {:?}", fields[1]))
            })?;
            capacity = Some((number, cap));
            in_vehicle = false;
        } else if in_customer {
            if fields.len() != 7 {
                return Err(err(
                    lineno,
                    format!("expected 7 customer fields, got {}", fields.len()),
                ));
            }
            let mut nums = [0.0f64; 7];
            for (i, f) in fields.iter().enumerate() {
                nums[i] = f.parse::<f64>().map_err(|_| {
                    err_field(
                        lineno,
                        CUSTOMER_FIELDS[i],
                        format!("non-numeric customer field {f:?}"),
                    )
                })?;
            }
            if nums.iter().any(|v| !v.is_finite()) {
                return Err(err(lineno, "customer fields must be finite numbers"));
            }
            if sites.len() == MAX_SITES {
                return Err(err(
                    lineno,
                    format!("more than {MAX_SITES} sites (depot included)"),
                ));
            }
            let expected = sites.len() as f64;
            if nums[0] != expected {
                return Err(err_field(
                    lineno,
                    CUSTOMER_FIELDS[0],
                    format!(
                        "customer numbers must be consecutive; expected {expected}, got {}",
                        nums[0]
                    ),
                ));
            }
            sites.push(Customer {
                x: nums[1],
                y: nums[2],
                demand: nums[3],
                ready: nums[4],
                due: nums[5],
                service: nums[6],
            });
        } else {
            return Err(err(
                lineno,
                format!("unexpected content outside any section: {line:?}"),
            ));
        }
    }

    let (number, cap) = capacity.ok_or_else(|| err(0, "missing VEHICLE section"))?;
    if number == 0 {
        return Err(err(0, "vehicle count must be positive"));
    }
    if !(cap > 0.0 && cap.is_finite()) {
        return Err(err(0, "vehicle capacity must be positive and finite"));
    }
    if sites.len() < 2 {
        return Err(err(0, "need a depot and at least one customer"));
    }
    if sites[0].demand != 0.0 {
        return Err(err(0, "the depot must have zero demand"));
    }
    if name.is_empty() {
        name = "unnamed".to_string();
    }
    let inst = Instance::new(name, sites, cap, number);
    let problems = inst.validate();
    if let Some(p) = problems.first() {
        return Err(err(0, format!("instance fails validation: {p}")));
    }
    Ok(inst)
}

/// Reads and parses a Solomon-format file from disk.
pub fn read_file(path: impl AsRef<Path>) -> Result<Instance, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse(&text)?)
}

/// Serializes an instance back to Solomon format.
///
/// `parse(&write(inst))` reproduces the instance exactly up to floating
/// point formatting (coordinates and times are written with enough digits
/// to round-trip).
pub fn write(inst: &Instance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}\n", inst.name);
    let _ = writeln!(out, "VEHICLE");
    let _ = writeln!(out, "NUMBER     CAPACITY");
    let _ = writeln!(
        out,
        "  {}         {}\n",
        inst.max_vehicles(),
        fmt_num(inst.capacity())
    );
    let _ = writeln!(out, "CUSTOMER");
    let _ = writeln!(
        out,
        "CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME"
    );
    for i in 0..inst.n_sites() {
        let c = inst.site(i as u16);
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>10} {:>9} {:>11} {:>10} {:>13}",
            i,
            fmt_num(c.x),
            fmt_num(c.y),
            fmt_num(c.demand),
            fmt_num(c.ready),
            fmt_num(c.due),
            fmt_num(c.service),
        );
    }
    out
}

/// Formats a number without trailing `.0` noise but with full precision for
/// non-integral values.
fn fmt_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
TOY5

VEHICLE
NUMBER     CAPACITY
  3         10

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
    0          0          0         0           0       1000             0
    1         10          0         4           0        100             1
    2          0         10         4           0        100             1
    3        -10          0         4           0        100             1
    4          0        -10         4           0        100             1
";

    #[test]
    fn parses_sample() {
        let inst = parse(SAMPLE).unwrap();
        assert_eq!(inst.name, "TOY5");
        assert_eq!(inst.n_customers(), 4);
        assert_eq!(inst.capacity(), 10.0);
        assert_eq!(inst.max_vehicles(), 3);
        assert_eq!(inst.site(1).x, 10.0);
        assert_eq!(inst.site(4).y, -10.0);
        assert_eq!(inst.site(2).service, 1.0);
    }

    #[test]
    fn round_trips_through_writer() {
        let inst = parse(SAMPLE).unwrap();
        let text = write(&inst);
        let again = parse(&text).unwrap();
        assert_eq!(again.name, inst.name);
        assert_eq!(again.n_sites(), inst.n_sites());
        assert_eq!(again.capacity(), inst.capacity());
        assert_eq!(again.max_vehicles(), inst.max_vehicles());
        for i in 0..inst.n_sites() as u16 {
            assert_eq!(again.site(i), inst.site(i), "site {i}");
        }
    }

    #[test]
    fn round_trips_generated_instance() {
        use crate::generator::{GeneratorConfig, InstanceClass};
        let inst = GeneratorConfig::new(InstanceClass::C1, 60, 7).build();
        let again = parse(&write(&inst)).unwrap();
        for i in 0..inst.n_sites() as u16 {
            let (a, b) = (inst.site(i), again.site(i));
            assert!((a.x - b.x).abs() < 1e-12);
            assert!((a.ready - b.ready).abs() < 1e-12);
            assert!((a.due - b.due).abs() < 1e-12);
        }
    }

    #[test]
    fn missing_vehicle_section_rejected() {
        let e = parse("NAME\nCUSTOMER\nCUST NO. X Y D R D S\n0 0 0 0 0 10 0\n1 1 1 1 0 10 0\n")
            .unwrap_err();
        assert!(e.message.contains("VEHICLE"), "{e}");
    }

    #[test]
    fn non_consecutive_customer_ids_rejected() {
        let text = SAMPLE.replace("    4          0        -10", "    9          0        -10");
        let e = parse(&text).unwrap_err();
        assert!(e.message.contains("consecutive"), "{e}");
    }

    #[test]
    fn bad_field_count_reports_line() {
        let text = SAMPLE.replace(
            "    2          0         10         4           0        100             1",
            "    2          0         10         4           0",
        );
        let e = parse(&text).unwrap_err();
        assert!(e.line > 0);
        assert!(e.message.contains("7 customer fields"), "{e}");
    }

    #[test]
    fn malformed_fields_report_line_and_field() {
        // Non-numeric demand on customer 2 (line 11 of SAMPLE).
        let text = SAMPLE.replace(
            "    2          0         10         4",
            "    2          0         10       abc",
        );
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 11);
        assert_eq!(e.field, Some("DEMAND"));
        assert_eq!(
            e.to_string(),
            format!("line 11, field DEMAND: {}", e.message)
        );

        // Non-numeric vehicle capacity.
        let text = SAMPLE.replace("  3         10", "  3         ten");
        let e = parse(&text).unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(e.field, Some("CAPACITY"));

        // Out-of-order customer number carries the CUST NO. field.
        let text = SAMPLE.replace("    4          0        -10", "    9          0        -10");
        let e = parse(&text).unwrap_err();
        assert_eq!(e.field, Some("CUST NO."));
        assert_eq!(e.line, 13);

        // Whole-file errors carry no field.
        let e = parse("NAME\nVEHICLE\nNUMBER CAPACITY\n1 10\n").unwrap_err();
        assert_eq!(e.field, None);
        assert!(e.to_string().starts_with("line 0:"), "{e}");
    }

    #[test]
    fn invalid_instances_rejected_by_validation() {
        // Customer demand exceeding capacity.
        let text = SAMPLE.replace(
            "    1         10          0         4",
            "    1         10          0        40",
        );
        let e = parse(&text).unwrap_err();
        assert!(e.message.contains("validation"), "{e}");
    }

    #[test]
    fn file_io_round_trip() {
        let inst = parse(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("vrptw-solomon-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy5.txt");
        std::fs::write(&path, write(&inst)).unwrap();
        let again = read_file(&path).unwrap();
        assert_eq!(again.n_sites(), inst.n_sites());
    }
}
