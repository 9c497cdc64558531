use std::process::ExitCode;

fn main() -> ExitCode {
    admitbench::bench::main()
}
