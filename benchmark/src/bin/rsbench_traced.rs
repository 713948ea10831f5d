//! The traced benchmark binary: same logic, plus the counting allocator
//! behind the `alloc.*` per-layer metrics.

#[global_allocator]
static ALLOC: racket_benchmark::alloc::CountingAlloc = racket_benchmark::alloc::CountingAlloc;

fn main() {
    racket_benchmark::main(true)
}
