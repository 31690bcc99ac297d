//! A small, dependency-free argument parser driven by flag tables. Each
//! command declares its flags as [`Flag`] rows; the rows alone decide which
//! options it accepts, whether each takes a value, what an absent one reads
//! as, and what its help line says.

use std::fmt;

/// Table text: flag names, placeholders, defaults and help lines.
type Text = &'static str;

/// Whether a flag takes a value, and the placeholder that names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare `--name`.
    Switch,
    /// `--name=VALUE`.
    Value(Text),
    /// `--name=VALUE`, repeatable.
    Repeated(Text),
}

/// One row of a command's flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The name after `--`.
    pub name: Text,
    /// Switch or valued.
    pub kind: Kind,
    /// What an absent flag reads as (`""`: unset); `None` when the command
    /// computes it at run time.
    pub default: Option<Text>,
    /// One help line.
    pub help: Text,
}

impl Flag {
    /// A bare `--name`.
    pub const fn switch(name: Text, help: Text) -> Self {
        Flag { name, kind: Kind::Switch, default: Some(""), help }
    }

    /// `--name=VALUE`, reading as `default` when absent.
    pub const fn value(name: Text, meta: Text, default: Text, help: Text) -> Self {
        Flag { name, kind: Kind::Value(meta), default: Some(default), help }
    }

    /// `--name=VALUE` whose absent value the command computes at run time.
    pub const fn computed(name: Text, meta: Text, help: Text) -> Self {
        Flag { name, kind: Kind::Value(meta), default: None, help }
    }

    /// `--name=VALUE`, any number of times.
    pub const fn repeated(name: Text, meta: Text, help: Text) -> Self {
        Flag { name, kind: Kind::Repeated(meta), default: Some(""), help }
    }

    /// The form a user types: `--tolerant`, `--k=N`, `--range=DIM:LO:HI…`.
    pub fn form(&self) -> String {
        match self.kind {
            Kind::Switch => format!("--{}", self.name),
            Kind::Value(p) => format!("--{}={p}", self.name),
            Kind::Repeated(p) => format!("--{}={p}…", self.name),
        }
    }
}

/// Parsing / validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option was given that the command does not define.
    Unknown(String),
    /// A switch given `=value`, or a valued option given bare.
    Malformed {
        /// What was typed, without the leading `--`.
        given: String,
        /// The row's form, e.g. `--k=N`.
        form: String,
    },
    /// A value failed to parse as the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// The raw text.
        value: String,
        /// Expected type name.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(k) => write!(f, "unknown option --{k}"),
            Self::Malformed { given, form } => {
                write!(f, "malformed option --{given}: write {form}")
            }
            Self::BadValue { key, value, expected } => {
                write!(f, "--{key}={value}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: options and positionals, and once [`Args::check`]ed,
/// the flag table its getters read defaults from.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// Every option in order: `--key=value` as `Some(value)`, `--key` as `None`.
    given: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
    table: &'static [&'static [Flag]],
}

fn lookup(table: &'static [&'static [Flag]], key: &str) -> Option<&'static Flag> {
    table.iter().flat_map(|group| group.iter()).find(|row| row.name == key)
}

impl Args {
    /// Parses raw arguments. `--key=value` and bare `--key` become options,
    /// anything else a positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let mut out = Args::default();
        for arg in raw {
            if let Some(rest) = arg.strip_prefix("--") {
                out.given.push(match rest.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (rest.to_string(), None),
                });
            } else {
                out.positionals.push(arg);
            }
        }
        out
    }

    /// Checks every option against `table`'s rows: an unknown name, a switch
    /// given `=value` and a valued flag given bare are errors. The checked
    /// arguments read absent flags' defaults from `table`.
    pub fn check(mut self, table: &'static [&'static [Flag]]) -> Result<Self, ArgError> {
        for (key, value) in &self.given {
            let row = lookup(table, key).ok_or_else(|| ArgError::Unknown(key.clone()))?;
            if (row.kind == Kind::Switch) != value.is_none() {
                let given = value.as_ref().map_or_else(|| key.clone(), |v| format!("{key}={v}"));
                return Err(ArgError::Malformed { given, form: row.form() });
            }
        }
        self.table = table;
        Ok(self)
    }

    fn row(&self, key: &str) -> &'static Flag {
        lookup(self.table, key).unwrap_or_else(|| panic!("--{key} has no row in the checked table"))
    }

    /// The last value given for `key`, if any.
    pub fn given(&self, key: &str) -> Option<&str> {
        self.given.iter().rev().find(|(k, _)| k == key).and_then(|(_, v)| v.as_deref())
    }

    fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ArgError> {
        value.parse().map_err(|_| ArgError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }

    /// A typed option: the given value, else the row's default.
    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let default = self.row(key).default.expect("a computed row is read with get_or");
        Self::parse_value(key, self.given(key).unwrap_or(default))
    }

    /// A typed option whose row is computed: the given value, else `computed`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, computed: T) -> Result<T, ArgError> {
        debug_assert_eq!(self.row(key).default, None, "--{key} has a literal default");
        self.given(key).map_or(Ok(computed), |v| Self::parse_value(key, v))
    }

    /// A string option: the given value, else the row's default.
    pub fn get_str(&self, key: &str) -> String {
        self.get(key).expect("any text parses as a String")
    }

    /// True if the bare switch was given.
    pub fn flag(&self, key: &str) -> bool {
        self.given.iter().any(|(k, v)| k == key && v.is_none())
    }

    /// Every value given for a repeatable option, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.given.iter().filter(|(k, _)| k == key).filter_map(|(_, v)| v.as_deref()).collect()
    }

    /// The positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUP: &[Flag] = &[
        Flag::value("k", "N", "40", "clusters"),
        Flag::value("seed", "N", "0", "seed"),
        Flag::switch("tolerant", "degrade"),
        Flag::value("out", "DIR", "default", "output"),
        Flag::repeated("range", "DIM:LO:HI", "ranges"),
        Flag::computed("memory", "BYTES", "budget"),
    ];
    const TABLE: &[&[Flag]] = &[GROUP];

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string())).check(TABLE).unwrap()
    }

    fn reject(s: &[&str]) -> ArgError {
        Args::parse(s.iter().map(|s| s.to_string())).check(TABLE).unwrap_err()
    }

    #[test]
    fn splits_options_flags_positionals() {
        let a = parse(&["--k=40", "--tolerant", "a.gb", "b.gb"]);
        assert_eq!(a.get::<usize>("k").unwrap(), 40);
        assert!(a.flag("tolerant"));
        assert!(!a.flag("full"));
        assert_eq!(a.positionals(), &["a.gb".to_string(), "b.gb".to_string()]);
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["--seed=7"]);
        assert_eq!(a.get::<u64>("seed").unwrap(), 7);
        assert_eq!(a.get::<usize>("k").unwrap(), 40, "the row's default");
        assert_eq!(a.get_or::<usize>("memory", 9).unwrap(), 9, "computed when absent");
        assert_eq!(parse(&["--memory=3"]).get_or::<usize>("memory", 9).unwrap(), 3);
        assert_eq!(a.given("seed"), Some("7"));
        assert_eq!(a.given("k"), None);
    }

    #[test]
    fn bad_values_are_reported() {
        let a = parse(&["--k=forty"]);
        assert!(matches!(a.get::<usize>("k"), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn unknown_options_detected() {
        assert_eq!(reject(&["--k=1", "--bogus=2", "x"]), ArgError::Unknown("bogus".into()));
        assert_eq!(reject(&["--bogus"]), ArgError::Unknown("bogus".into()));
    }

    #[test]
    fn malformed_options_show_the_form() {
        let form = |given: &str, form: &str| ArgError::Malformed {
            given: given.into(),
            form: form.into(),
        };
        assert_eq!(reject(&["--tolerant=yes"]), form("tolerant=yes", "--tolerant"));
        assert_eq!(reject(&["--k", "4"]), form("k", "--k=N"));
        assert_eq!(reject(&["--range"]), form("range", "--range=DIM:LO:HI…"));
    }

    #[test]
    fn string_options() {
        let a = parse(&["--out=dir/sub"]);
        assert_eq!(a.get_str("out"), "dir/sub");
        assert_eq!(parse(&[]).get_str("out"), "default");
    }

    #[test]
    fn repeated_options_are_all_kept() {
        let a = parse(&["--range=0:1:2", "--range=1:3:4", "--k=2"]);
        assert_eq!(a.get_all("range"), vec!["0:1:2", "1:3:4"]);
        assert_eq!(a.get_all("k"), vec!["2"]);
        assert!(a.get_all("seed").is_empty());
    }

    #[test]
    fn display_messages() {
        assert_eq!(ArgError::Unknown("x".into()).to_string(), "unknown option --x");
        let e = ArgError::Malformed { given: "k".into(), form: "--k=N".into() };
        assert_eq!(e.to_string(), "malformed option --k: write --k=N");
    }
}
