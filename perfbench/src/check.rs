//! Output checks. Every expectation here is computed independently of the
//! program under test (cell comparison with the generator's clean table,
//! values observed in the input files) or is a property of the method; no
//! stored copy of an earlier run's output is compared against.

use std::collections::HashSet;

use bclean_core::ConstraintSet;
use bclean_data::{parse_csv, to_csv, Dataset, Value};

/// One line of the canonical repairs CSV (`row,attribute,from,to,score_gain`).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRow {
    pub row: usize,
    pub col: usize,
    pub from: Value,
    pub to: Value,
    pub gain: f64,
}

/// Parse a repairs CSV against the schema of the data it repairs.
pub fn parse_repairs(text: &str, schema_of: &Dataset) -> Result<Vec<RepairRow>, String> {
    let table = parse_csv(text).map_err(|e| format!("repairs CSV does not parse: {e}"))?;
    let names: Vec<&str> = table.schema().names();
    if names != ["row", "attribute", "from", "to", "score_gain"] {
        return Err(format!("unexpected repairs header {names:?}"));
    }
    let columns = schema_of.schema().names();
    let mut out = Vec::with_capacity(table.num_rows());
    for fields in table.rows() {
        let row = fields[0].as_number().filter(|n| *n >= 0.0 && n.fract() == 0.0);
        let row = row.ok_or_else(|| format!("bad repair row index {:?}", fields[0]))? as usize;
        let attribute = fields[1].as_text();
        let col = columns
            .iter()
            .position(|name| *name == attribute)
            .ok_or_else(|| format!("repair names unknown attribute {attribute:?}"))?;
        // A cell whose observed value has no support scores -inf, so its
        // repair's gain renders as `inf`.
        let gain: f64 = fields[4].as_text().parse().map_err(|_| format!("bad score_gain {:?}", fields[4]))?;
        out.push(RepairRow { row, col, from: fields[2].clone(), to: fields[3].clone(), gain });
    }
    Ok(out)
}

/// The values observed in each column of the given tables: the fit-time
/// dictionary of a model fit on (and grown by) exactly these tables.
pub fn observed_values(tables: &[&Dataset]) -> Vec<HashSet<Value>> {
    let arity = tables.first().map_or(0, |t| t.num_columns());
    let mut out = vec![HashSet::new(); arity];
    for table in tables {
        for row in table.rows() {
            for (col, value) in row.iter().enumerate() {
                out[col].insert(value.clone());
            }
        }
    }
    out
}

/// Check the method's properties on the repairs of `batch`: each repair
/// refers to a row of the batch and its observed value, changes it to a
/// dictionary value that satisfies the column's user constraints, with a
/// positive score gain, in strictly increasing (row, column) order.
pub fn check_repairs(
    repairs: &[RepairRow],
    batch: &Dataset,
    dictionary: &[HashSet<Value>],
    constraints: &ConstraintSet,
) -> Result<(), String> {
    let names = batch.schema().names();
    let mut previous: Option<(usize, usize)> = None;
    for r in repairs {
        let at = format!("repair at ({}, {})", r.row, names[r.col]);
        let observed = batch.cell(r.row, r.col).map_err(|_| format!("{at}: row outside the batch"))?;
        if *observed != r.from {
            return Err(format!("{at}: from {:?} but the cell holds {observed:?}", r.from));
        }
        if r.to == r.from {
            return Err(format!("{at}: to equals from"));
        }
        if !dictionary[r.col].contains(&r.to) {
            return Err(format!("{at}: {:?} is not in the column's dictionary", r.to));
        }
        if !constraints.check(names[r.col], &r.to) {
            return Err(format!("{at}: {:?} violates the column's user constraints", r.to));
        }
        if r.gain.is_nan() || r.gain <= 0.0 {
            return Err(format!("{at}: score gain {} is not positive", r.gain));
        }
        if previous.is_some_and(|p| p >= (r.row, r.col)) {
            return Err(format!("{at}: repairs are not strictly (row, col)-sorted"));
        }
        previous = Some((r.row, r.col));
    }
    Ok(())
}

/// Precision, recall and F1 of `repairs` by cell comparison with the clean
/// table: a repair is correct when it sets the cell to its clean value; an
/// error is a cell where the dirty and clean tables differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quality {
    pub correct: usize,
    pub repaired: usize,
    pub errors: usize,
}

impl Quality {
    pub fn of(dirty: &Dataset, truth: &Dataset, repairs: &[RepairRow]) -> Quality {
        let mut errors = 0;
        for (d, t) in dirty.rows().zip(truth.rows()) {
            errors += d.iter().zip(t).filter(|(a, b)| a != b).count();
        }
        let correct = repairs.iter().filter(|r| truth.cell(r.row, r.col).is_ok_and(|v| *v == r.to)).count();
        Quality { correct, repaired: repairs.len(), errors }
    }

    pub fn add(&mut self, other: Quality) {
        self.correct += other.correct;
        self.repaired += other.repaired;
        self.errors += other.errors;
    }

    pub fn precision(&self) -> f64 {
        self.correct as f64 / self.repaired.max(1) as f64
    }

    pub fn recall(&self) -> f64 {
        self.correct as f64 / self.errors.max(1) as f64
    }

    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// The dirty table with the repairs applied, rendered as CSV.
pub fn apply_repairs(dirty: &Dataset, repairs: &[RepairRow]) -> Result<String, String> {
    let mut cleaned = dirty.clone();
    for r in repairs {
        cleaned.set_cell(r.row, r.col, r.to.clone()).map_err(|e| e.to_string())?;
    }
    Ok(to_csv(&cleaned))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bclean_core::UserConstraint;
    use bclean_data::dataset_from;

    fn batch() -> Dataset {
        dataset_from(&["City", "State"], &[vec!["a", "AL"], vec!["a", "XX"], vec!["b", "AK"]])
    }

    #[test]
    fn properties_are_checked() {
        let batch = batch();
        let dict = observed_values(&[&batch]);
        let mut cs = ConstraintSet::new();
        cs.add("State", UserConstraint::MaxLength(2));
        let good = parse_repairs("row,attribute,from,to,score_gain\n1,State,XX,AL,0.5\n", &batch).unwrap();
        assert_eq!(check_repairs(&good, &batch, &dict, &cs), Ok(()));
        for bad in [
            "1,State,YY,AL,0.5", // from is not the cell
            "1,State,XX,XX,0.5", // no change
            "1,State,XX,CA,0.5", // not in the dictionary
            "1,State,XX,AL,0",   // no gain
            "7,State,XX,AL,0.5", // outside the batch
        ] {
            let repairs =
                parse_repairs(&format!("row,attribute,from,to,score_gain\n{bad}\n"), &batch).unwrap();
            assert!(check_repairs(&repairs, &batch, &dict, &cs).is_err(), "{bad} passed");
        }
        let unsorted =
            parse_repairs("row,attribute,from,to,score_gain\n1,State,XX,AL,1\n0,City,a,b,1\n", &batch)
                .unwrap();
        assert!(check_repairs(&unsorted, &batch, &dict, &cs).is_err());
    }

    #[test]
    fn quality_by_cell_comparison() {
        let dirty = batch();
        let truth = dataset_from(&["City", "State"], &[vec!["a", "AL"], vec!["a", "AL"], vec!["b", "AL"]]);
        let repairs =
            parse_repairs("row,attribute,from,to,score_gain\n1,State,XX,AL,1\n2,City,b,a,1\n", &dirty)
                .unwrap();
        let q = Quality::of(&dirty, &truth, &repairs);
        assert_eq!((q.correct, q.repaired, q.errors), (1, 2, 2));
        assert_eq!(q.f1(), 0.5);
        let applied = apply_repairs(&dirty, &repairs).unwrap();
        assert_eq!(applied, "City,State\na,AL\na,AL\na,AK\n");
    }
}
