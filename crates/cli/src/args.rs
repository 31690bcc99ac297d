//! A small, dependency-free argument parser: `--key=value` and `--flag`
//! options plus positional arguments, with typed accessors and unknown-key
//! detection.

use std::collections::BTreeMap;
use std::fmt;

/// Parsing / validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// An option was given that the command does not define.
    Unknown(String),
    /// A value failed to parse as the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// The raw text.
        value: String,
        /// Expected type name.
        expected: &'static str,
    },
    /// A required option was missing.
    Missing(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "--{key}={value}: expected {expected}")
            }
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line: options and positionals.
#[derive(Debug, Clone, Default)]
pub struct Args {
    options: BTreeMap<String, String>,
    /// Every occurrence of every option, in order (for repeatable options).
    occurrences: Vec<(String, String)>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `--key=value` becomes an option, bare `--key`
    /// a flag, anything else a positional.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Self {
        let mut out = Args::default();
        for arg in raw {
            if let Some(rest) = arg.strip_prefix("--") {
                match rest.split_once('=') {
                    Some((k, v)) => {
                        out.options.insert(k.to_string(), v.to_string());
                        out.occurrences.push((k.to_string(), v.to_string()));
                    }
                    None => out.flags.push(rest.to_string()),
                }
            } else {
                out.positionals.push(arg);
            }
        }
        out
    }

    /// Rejects any option or flag not in `allowed`.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.options.keys().chain(self.flags.iter()) {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::Unknown(k.clone()));
            }
        }
        Ok(())
    }

    /// A typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A required typed option.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Err(ArgError::Missing(key.to_string())),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A string option with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// True if the bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every value given for a repeatable option, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.occurrences.iter().filter(|(k, _)| k == key).map(|(_, v)| v.as_str()).collect()
    }

    /// The positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn splits_options_flags_positionals() {
        let a = parse(&["--k=40", "--tolerant", "a.gb", "b.gb"]);
        assert_eq!(a.get::<usize>("k", 0).unwrap(), 40);
        assert!(a.flag("tolerant"));
        assert!(!a.flag("full"));
        assert_eq!(a.positionals(), &["a.gb".to_string(), "b.gb".to_string()]);
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse(&["--seed=7"]);
        assert_eq!(a.get::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(a.get::<usize>("k", 40).unwrap(), 40);
        assert_eq!(a.require::<u64>("seed").unwrap(), 7);
        assert_eq!(a.require::<usize>("k"), Err(ArgError::Missing("k".into())));
    }

    #[test]
    fn bad_values_are_reported() {
        let a = parse(&["--k=forty"]);
        assert!(matches!(a.get::<usize>("k", 0), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn unknown_options_detected() {
        let a = parse(&["--k=1", "--bogus=2", "x"]);
        assert_eq!(a.expect_only(&["k"]), Err(ArgError::Unknown("bogus".into())));
        assert!(a.expect_only(&["k", "bogus"]).is_ok());
    }

    #[test]
    fn string_options() {
        let a = parse(&["--out=dir/sub"]);
        assert_eq!(a.get_str("out", "default"), "dir/sub");
        assert_eq!(a.get_str("missing", "default"), "default");
    }

    #[test]
    fn repeated_options_are_all_kept() {
        let a = parse(&["--range=0:1:2", "--range=1:3:4", "--k=2"]);
        assert_eq!(a.get_all("range"), vec!["0:1:2", "1:3:4"]);
        assert_eq!(a.get_all("k"), vec!["2"]);
        assert!(a.get_all("missing").is_empty());
    }

    #[test]
    fn display_messages() {
        assert_eq!(ArgError::Unknown("x".into()).to_string(), "unknown option --x");
        assert!(ArgError::Missing("k".into()).to_string().contains("--k"));
    }
}
