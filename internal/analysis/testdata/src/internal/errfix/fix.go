// Package errfix is the errdrop fixture.
package errfix

import (
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return nil }

func tuple() (int, error) { return 0, nil }

// drops a bare error: flagged.
func drops() {
	mayFail()
}

// dropsTuple drops a (T, error): flagged.
func dropsTuple() {
	tuple()
}

// dropsDefer drops in a defer: flagged.
func dropsDefer(f *os.File) {
	defer f.Close()
}

// dropsGo drops in a go statement: flagged.
func dropsGo() {
	go mayFail()
}

// explicit discards deliberately: not flagged.
func explicit() {
	_ = mayFail()
}

// handled propagates: not flagged.
func handled() error {
	if err := mayFail(); err != nil {
		return err
	}
	return nil
}

// infallible writers and stdout prints: not flagged.
func excluded(b *strings.Builder) {
	fmt.Fprintf(b, "x")
	fmt.Println("x")
}

// suppressed carries an annotation: not flagged.
func suppressed() {
	mayFail() //lisa:vet-ok errdrop best-effort cleanup on the shutdown path
}
