fn main() {
    std::process::exit(pb_chain_bench::cli::main());
}
