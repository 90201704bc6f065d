package asm

import (
	"fmt"
	"strings"
	"testing"
)

// spillSource renders n functions in the code generator's spill style:
// prologue, stack-slot loads and stores around ALU ops, a compare and
// conditional branch, a call, an epilogue, and a jump table of label
// references.
func spillSource(n int) string {
	var sb strings.Builder
	sb.WriteString("_start:\n    call f0\n    mov rdi, rax\n    mov rax, 60\n    syscall\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "f%d:\n    push rbp\n    mov rbp, rsp\n    push rbx\n    sub rsp, 64\n", i)
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&sb, "    movabs rax, %d\n    mov qword [rbp-%d], rax\n", i*31+j, 8*(j+1))
			fmt.Fprintf(&sb, "    mov rax, qword [rbp-%d]\n    mov rbx, qword [rbp-%d]\n", 8*(j+1), 8*(j+2))
			sb.WriteString("    add rax, rbx\n    imul rax, rbx\n")
			fmt.Fprintf(&sb, "    mov qword [rbp-%d], rax\n", 8*(j+3))
		}
		fmt.Fprintf(&sb, "    cmp rax, rbx\n    jl f%d_b1\n    call f%d\nf%d_b1:\n", i, (i+1)%n, i)
		fmt.Fprintf(&sb, "    movabs rcx, f%d_t\n    mov rax, qword [rcx+rax*8]\n    jmp rax\n", i)
		sb.WriteString("    add rsp, 64\n    pop rbx\n    pop rbp\n    ret\n")
		fmt.Fprintf(&sb, "f%d_t:\n    .quad f%d_b1\n    .quad f%d\n", i, i, i)
	}
	return sb.String()
}

// BenchmarkAssemble measures parsing, layout and encoding of a
// code-generator-sized source (several thousand statements).
func BenchmarkAssemble(b *testing.B) {
	src := spillSource(200)
	if _, err := Assemble(src, 0x401000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := Assemble(src, 0x401000); err != nil {
			b.Fatal(err)
		}
	}
}
