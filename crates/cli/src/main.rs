//! `pmkm` binary: thin shell over [`pmkm_cli::dispatch`], exiting with
//! [`pmkm_cli::CliError::exit_code`].

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        None => {
            eprint!("{}", pmkm_cli::overview());
            std::process::exit(2);
        }
        Some(arg) if arg == "--help" || arg == "-h" => {
            print!("{}", pmkm_cli::overview());
            return;
        }
        Some(command) => command,
    };
    let args = pmkm_cli::Args::parse(argv);
    if let Err(e) = pmkm_cli::dispatch(&command, &args, &mut std::io::stdout()) {
        eprintln!("pmkm {command}: {e}");
        if e.exit_code() == 2 {
            eprintln!("{}", pmkm_cli::usage_hint(&command));
        }
        std::process::exit(e.exit_code());
    }
}
