//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() {
    racket_benchmark::main(false)
}
