//! Parsers for what the `pmkm` CLI prints: the `orchestrated …` header and
//! `cell …` rows of `orchestrate`, and the per-file rows of `convert`.

/// The first line of `pmkm orchestrate`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub cells: usize,
    pub workers: usize,
    pub resumed: usize,
    pub executed: usize,
    pub checkpoints_written: usize,
    pub checkpoints_invalid: usize,
    pub steals: u64,
    pub interrupted: bool,
}

/// The `[coreset: …]` tag of a cell row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoresetTag {
    pub buckets: usize,
    pub levels: usize,
    pub compactions: u64,
}

/// One `cell N: …` row. `epm` stays text so two runs compare exactly as
/// printed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellLine {
    pub cell: u32,
    pub chunks: usize,
    pub centroids: usize,
    pub epm: String,
    pub points: u64,
    pub coreset: Option<CoresetTag>,
    pub degraded: bool,
    pub resumed: bool,
}

/// Everything `pmkm orchestrate` printed that the checks read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orchestrated {
    pub header: Header,
    pub cells: Vec<CellLine>,
    /// `cell #N: no surviving chunks [degraded]` rows.
    pub lost_cells: usize,
}

/// The number that directly precedes `suffix` in `text`
/// (`"… 12 chunks, …"`, `" chunks"` → 12).
fn number_before<T: std::str::FromStr>(text: &str, suffix: &str) -> Option<T> {
    let head = &text[..text.find(suffix)?];
    let start = head.rfind(|c: char| !(c.is_ascii_digit() || c == '.')).map_or(0, |i| i + 1);
    head[start..].parse().ok()
}

fn parse_header(line: &str) -> Option<Header> {
    let rest = line.strip_prefix("orchestrated ")?;
    Some(Header {
        cells: number_before(rest, " cells on ")?,
        workers: number_before(rest, " workers in ")?,
        resumed: number_before(rest, " resumed,")?,
        executed: number_before(rest, " executed,")?,
        checkpoints_written: number_before(rest, " checkpoint(s) written")?,
        checkpoints_invalid: number_before(rest, " invalid,")?,
        steals: number_before(rest, " steal(s)")?,
        interrupted: rest.trim_end().ends_with("INTERRUPTED"),
    })
}

fn parse_coreset_tag(line: &str) -> Option<CoresetTag> {
    let tag = &line[line.find("[coreset: ")?..];
    let tag = &tag[..=tag.find(']')?];
    Some(CoresetTag {
        buckets: number_before(tag, " bucket(s)")?,
        levels: number_before(tag, " level(s)")?,
        compactions: number_before(tag, " compaction(s)")?,
    })
}

fn parse_cell(line: &str) -> Option<CellLine> {
    let rest = line.trim_start().strip_prefix("cell ")?;
    let (index, rest) = rest.split_once(": ")?;
    let epm_at = rest.find("E_pm ")? + "E_pm ".len();
    let epm = rest[epm_at..].split(',').next()?.trim().to_string();
    Some(CellLine {
        cell: index.parse().ok()?,
        chunks: number_before(rest, " chunks,")?,
        centroids: number_before(rest, " centroids,")?,
        epm,
        points: number_before(rest, " points")?,
        coreset: parse_coreset_tag(rest),
        degraded: rest.contains("[degraded"),
        resumed: rest.contains("[resumed]"),
    })
}

/// Parses the stdout of `pmkm orchestrate`. `None` when the header line is
/// missing or malformed; rows it does not recognise (`[budget]`, `[faults]`,
/// `wrote …`) are skipped.
pub fn parse_orchestrate(stdout: &str) -> Option<Orchestrated> {
    let mut lines = stdout.lines();
    let header = lines.by_ref().find_map(parse_header)?;
    let mut cells = Vec::new();
    let mut lost_cells = 0;
    for line in lines {
        if line.trim_start().starts_with("cell #") {
            lost_cells += 1;
        } else if let Some(cell) = parse_cell(line) {
            cells.push(cell);
        }
    }
    Some(Orchestrated { header, cells, lost_cells })
}

/// One row of `pmkm convert`: `SRC: N points -> DST (…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Converted {
    pub source: String,
    pub points: u64,
    pub dest: String,
}

/// Parses the stdout of `pmkm convert`, one entry per converted file.
pub fn parse_convert(stdout: &str) -> Vec<Converted> {
    stdout
        .lines()
        .filter_map(|line| {
            let (source, rest) = line.split_once(": ")?;
            let (points, rest) = rest.split_once(" points -> ")?;
            let (dest, _) = rest.split_once(" (")?;
            Some(Converted {
                source: source.to_string(),
                points: points.parse().ok()?,
                dest: dest.to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from `pmkm orchestrate` at the commit that added the benchmark.
    const CLASSIC: &str = "\
orchestrated 16 cells on 2 workers in 7171 ms (0 resumed, 16 executed, 0 checkpoint(s) written, 0 invalid, 0 steal(s))
  cell 0: 10 chunks, 40 centroids, E_pm 12614744.6, 25000 points
  cell 1: 10 chunks, 40 centroids, E_pm 13411910.2, 25000 points
";
    const CORESET: &str = "\
orchestrated 32 cells on 2 workers in 8448 ms (0 resumed, 32 executed, 0 checkpoint(s) written, 0 invalid, 0 steal(s))
  cell 0: 60 chunks, 40 centroids, E_pm 98101569.2, 150000 points [coreset: 4 bucket(s), 6 level(s), 56 compaction(s)]
";
    const JOURNALED: &str = "\
orchestrated 3000 cells on 2 workers in 30924 ms (0 resumed, 3000 executed, 3000 checkpoint(s) written, 0 invalid, 10 steal(s))
  [budget] peak in-flight 123456 bytes
  cell 2999: 2 chunks, 40 centroids, E_pm 202341.1, 250 points
wrote ledger to led.jsonl
";
    const DEGRADED: &str = "\
orchestrated 3 cells on 2 workers in 12 ms (1 resumed, 2 executed, 2 checkpoint(s) written, 1 invalid, 0 steal(s)) INTERRUPTED
  cell 7: 3 chunks, 4 centroids, E_pm 10.5, 90 points [coreset: 2 bucket(s), 1 level(s), 0 compaction(s)] [degraded: lost 30 points in 1 chunk(s)] [resumed]
  cell #2: no surviving chunks [degraded]
  [faults] scan retries 1, scan failures 0, poisoned 0, quarantined 1, worker panics 0, chunk retries 0, stalls 0, degraded cells 2
";

    #[test]
    fn parses_the_classic_header_and_rows() {
        let out = parse_orchestrate(CLASSIC).unwrap();
        assert_eq!(
            out.header,
            Header {
                cells: 16,
                workers: 2,
                resumed: 0,
                executed: 16,
                checkpoints_written: 0,
                checkpoints_invalid: 0,
                steals: 0,
                interrupted: false
            }
        );
        assert_eq!(out.cells.len(), 2);
        let c = &out.cells[1];
        assert_eq!((c.cell, c.chunks, c.centroids, c.points), (1, 10, 40, 25_000));
        assert_eq!(c.epm, "13411910.2");
        assert!(c.coreset.is_none() && !c.degraded && !c.resumed);
        assert_eq!(out.lost_cells, 0);
    }

    #[test]
    fn parses_the_coreset_tag() {
        let out = parse_orchestrate(CORESET).unwrap();
        let c = &out.cells[0];
        assert_eq!(c.coreset, Some(CoresetTag { buckets: 4, levels: 6, compactions: 56 }));
        assert_eq!((c.chunks, c.points, c.epm.as_str()), (60, 150_000, "98101569.2"));
    }

    #[test]
    fn skips_rows_that_are_not_cells() {
        let out = parse_orchestrate(JOURNALED).unwrap();
        assert_eq!((out.header.checkpoints_written, out.header.steals), (3000, 10));
        assert_eq!(out.cells.len(), 1);
        assert_eq!(out.cells[0].cell, 2999);
    }

    #[test]
    fn parses_degraded_resumed_and_interrupted_tags() {
        let out = parse_orchestrate(DEGRADED).unwrap();
        assert!(out.header.interrupted);
        assert_eq!((out.header.resumed, out.header.checkpoints_invalid), (1, 1));
        let c = &out.cells[0];
        assert!(c.degraded && c.resumed);
        assert_eq!(c.coreset, Some(CoresetTag { buckets: 2, levels: 1, compactions: 0 }));
        assert_eq!((c.centroids, c.points, c.epm.as_str()), (4, 90, "10.5"));
        assert_eq!(out.lost_cells, 1);
    }

    #[test]
    fn rejects_output_without_a_header() {
        assert!(parse_orchestrate("").is_none());
        assert!(parse_orchestrate("error: no bucket files given\n").is_none());
        assert!(parse_orchestrate("orchestrated many cells\n").is_none());
    }

    #[test]
    fn parses_convert_rows() {
        let rows = parse_convert(
            "d/raw/cell_00003.gb2: 150000 points -> A/cell_00003.gb2 (37 block(s), shuffle-rle, 1.12x payload ratio, 6412345 bytes)\n",
        );
        assert_eq!(
            rows,
            vec![Converted {
                source: "d/raw/cell_00003.gb2".into(),
                points: 150_000,
                dest: "A/cell_00003.gb2".into()
            }]
        );
        assert!(parse_convert("convert: unknown codec\n").is_empty());
    }
}
