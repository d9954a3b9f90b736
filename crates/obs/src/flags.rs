//! Command-line flags parsed against a usage text, which is the grammar.
//!
//! * Every `--name` in the usage is a flag. It takes a value when the
//!   usage token after it is not itself a flag (`--out DIR`, `--kind
//!   drop|jump`) and is a switch otherwise (`--clean`, `--list | --delete
//!   ID`). A value placeholder of lower-case alternatives (`drop|jump`)
//!   also lists the values the flag accepts.
//! * A bare lower-case word the usage names, other than the leading
//!   words that name the program (`usage: reproduce`, `segdiff query`),
//!   is a positional (`reproduce table3 table5`).
//! * Anything else is an error naming the argument and the program.
//!
//! [`Flags::parse`] returns `Result`, and so does every accessor; only
//! [`from_env`] prints a message with the usage and exits 2.

use std::str::FromStr;

/// One command line parsed against a usage text.
#[derive(Debug)]
pub struct Flags {
    name: String,
    given: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Flags {
    /// Parses `args` against `usage`. An argument the usage does not
    /// name, a valued flag without its value, or a value outside the
    /// flag's listed alternatives is an error.
    pub fn parse(usage: &str, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let grammar = Grammar::new(usage);
        let mut flags = Flags {
            name: grammar.name.join(" "),
            given: Vec::new(),
            words: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if !grammar.words.contains(&arg.as_str()) {
                    return Err(format!("unknown argument {arg} for {}", flags.name));
                }
                flags.words.push(arg);
                continue;
            }
            let Some(placeholder) = grammar.flag(&arg) else {
                return Err(format!("unknown flag {arg} for {}", flags.name));
            };
            let value = match placeholder {
                None => None,
                Some(placeholder) => {
                    let value = args.next().ok_or(format!("{arg} needs a value"))?;
                    let choices = choices(placeholder);
                    if !choices.is_empty() && !choices.contains(&value.as_str()) {
                        return Err(format!(
                            "{arg} must be {}, not {value:?}",
                            choices.join(" or ")
                        ));
                    }
                    Some(value)
                }
            };
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// Every value given for `name`, in order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given
            .iter()
            .filter(move |(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// The last value given for `name`; one that does not parse as `T` is
    /// an error.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(value) = self.values(name).last() else {
            return Ok(None);
        };
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse {value:?}"))
    }

    /// The value of a flag the command line must give.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, String> {
        self.value(name)?
            .ok_or_else(|| format!("{} needs {name}", self.name))
    }

    /// The positionals, in order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// The one switch of `modes` that was given; none or several is an
    /// error.
    pub fn mode(&self, modes: &[&'static str]) -> Result<&'static str, String> {
        match modes.iter().filter(|m| self.switch(m)).collect::<Vec<_>>()[..] {
            [mode] => Ok(mode),
            _ => Err(format!("pick one of {}", modes.join(" | "))),
        }
    }
}

/// Parses the process's arguments against `usage` and hands them to
/// `build`; an error from either prints it with the usage and exits 2.
pub fn from_env<T>(usage: &str, build: impl FnOnce(&Flags) -> Result<T, String>) -> T {
    match Flags::parse(usage, std::env::args().skip(1)).and_then(|flags| build(&flags)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// What a usage text names: the program, its flags and its positionals.
struct Grammar<'u> {
    /// The leading words that name the program.
    name: Vec<&'u str>,
    /// Each flag with its value placeholder; `None` for a switch.
    flags: Vec<(&'u str, Option<&'u str>)>,
    /// The positionals.
    words: Vec<&'u str>,
}

impl<'u> Grammar<'u> {
    fn new(usage: &'u str) -> Grammar<'u> {
        let raw: Vec<&str> = usage
            .split_whitespace()
            .filter(|&t| t != "usage:")
            .collect();
        let bare = |t: &'u str| t.trim_matches(|c| matches!(c, '[' | ']' | '(' | ')' | '|'));
        let name: Vec<&str> = raw
            .iter()
            .take_while(|t| t.starts_with(|c: char| c.is_ascii_lowercase()))
            .copied()
            .collect();
        let mut grammar = Grammar {
            name,
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut i = 0;
        while i < raw.len() {
            let token = bare(raw[i]);
            i += 1;
            if token.starts_with("--") {
                // `[--json]` and `--list |` are switches; `--out DIR` is not.
                let placeholder = raw.get(i).copied().filter(|next| {
                    !raw[i - 1].ends_with([']', ')'])
                        && !next.starts_with(['[', '(', '|', '-'])
                        && !grammar.name.contains(next)
                });
                if !grammar.flags.iter().any(|&(f, _)| f == token) {
                    grammar.flags.push((token, placeholder.map(bare)));
                }
                i += usize::from(placeholder.is_some());
            } else if token.starts_with(|c: char| c.is_ascii_lowercase())
                && !grammar.name.contains(&token)
            {
                grammar.words.push(token);
            }
        }
        grammar
    }

    /// `Some(placeholder)` for a flag the usage names.
    fn flag(&self, arg: &str) -> Option<Option<&'u str>> {
        self.flags.iter().find(|&&(f, _)| f == arg).map(|&(_, p)| p)
    }
}

/// The values `drop|jump` lists; empty for any other placeholder.
fn choices(placeholder: &str) -> Vec<&str> {
    let listed = placeholder.contains('|')
        && placeholder
            .chars()
            .all(|c| c == '|' || c.is_ascii_lowercase());
    if listed {
        placeholder.split('|').collect()
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: g (--a | --b) [--n N] [--out DIR] [--kind drop|jump]";

    fn parse(usage: &str, args: &[&str]) -> Result<Flags, String> {
        Flags::parse(usage, args.iter().map(ToString::to_string))
    }

    #[test]
    fn flags_follow_the_usage_line() {
        let flags = parse(USAGE, &["--b", "--n", "7", "--out", "x"]).expect("valid");
        assert_eq!(flags.mode(&["--a", "--b"]), Ok("--b"));
        assert_eq!(flags.value::<u32>("--n"), Ok(Some(7)));
        assert_eq!(flags.value::<String>("--out"), Ok(Some("x".into())));
        assert_eq!(flags.value::<u32>("--kind"), Ok(None));
        assert!(!flags.switch("--a"));
        assert_eq!(
            parse(USAGE, &["--bogus"]).unwrap_err(),
            "unknown flag --bogus for g"
        );
        assert!(parse(USAGE, &["N"]).is_err(), "a placeholder is not a flag");
        assert!(parse(USAGE, &["--n"])
            .unwrap_err()
            .contains("needs a value"));
        let flags = parse(USAGE, &["--a", "--b", "--n", "x"]).expect("valid");
        assert!(flags.mode(&["--a", "--b"]).is_err());
        assert_eq!(
            flags.value::<u32>("--n").unwrap_err(),
            "--n: cannot parse \"x\""
        );
        assert_eq!(flags.required::<u32>("--out").unwrap_err(), "g needs --out");
    }

    #[test]
    fn listed_alternatives_are_the_only_values() {
        let flags = parse(USAGE, &["--kind", "jump"]).expect("valid");
        assert_eq!(flags.value::<String>("--kind"), Ok(Some("jump".into())));
        assert_eq!(
            parse(USAGE, &["--kind", "sideways"]).unwrap_err(),
            "--kind must be drop or jump, not \"sideways\""
        );
    }

    #[test]
    fn a_valued_flag_takes_the_next_argument_whatever_it_looks_like() {
        let usage = "prog --v V [--shard SPEC] [--shard ...] [--list | --delete ID]";
        let flags = parse(
            usage,
            &["--v", "-3", "--shard", "a", "--shard", "b", "--list"],
        )
        .expect("valid");
        assert_eq!(flags.value::<f64>("--v"), Ok(Some(-3.0)));
        assert_eq!(flags.values("--shard").collect::<Vec<_>>(), ["a", "b"]);
        assert!(flags.switch("--list"));
        let flags = parse(usage, &["--delete", "9"]).expect("valid");
        assert_eq!(flags.value::<u64>("--delete"), Ok(Some(9)));
    }

    #[test]
    fn named_words_are_positionals() {
        let usage = "usage: reproduce [all | table3 | table5] ... [--days N] [--tiny]";
        let flags = parse(usage, &["table3", "--days", "6", "table5"]).expect("valid");
        assert_eq!(flags.words(), ["table3", "table5"]);
        assert_eq!(flags.value::<u32>("--days"), Ok(Some(6)));
        for bad in ["table9", "reproduce", "N", "..."] {
            assert_eq!(
                parse(usage, &[bad]).unwrap_err(),
                format!("unknown argument {bad} for reproduce")
            );
        }
        // A subcommand's usage: its leading words name it, on every line.
        let usage = "segdiff serve --index DIR [--sensors 1,2,...]\n\
                     segdiff serve --index DIR --replica-of http://HOST:PORT";
        for bad in ["segdiff", "serve"] {
            assert!(parse(usage, &[bad]).is_err());
        }
        assert_eq!(
            parse(usage, &["--json"]).unwrap_err(),
            "unknown flag --json for segdiff serve"
        );
    }
}
