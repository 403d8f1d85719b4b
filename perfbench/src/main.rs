use xqr_perfbench::alloc_count::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    xqr_perfbench::cli::main()
}
