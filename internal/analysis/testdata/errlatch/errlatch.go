// Package eltest exercises nvlint's errlatch analyzer: a captured error
// must reach a return or latch on every CFG path.
package eltest

import (
	"errors"
	"fmt"
	"os"
)

var errBoom = errors.New("boom")

func mayFail() error { return errBoom }

func alsoFails() error { return errBoom }

type latcher struct {
	err error
}

// goodReturn hands the error straight back.
func goodReturn() error {
	err := mayFail()
	return err
}

// goodWrap consumes the error on the non-nil branch by wrapping it.
func goodWrap() error {
	if err := mayFail(); err != nil {
		return fmt.Errorf("wrapped: %w", err)
	}
	return nil
}

// goodLatch stores the error into the latched field.
func (l *latcher) goodLatch() {
	err := mayFail()
	l.err = err
}

// goodProvenNil returns the error on the non-nil edge; past the test the
// variable is proven nil and dropping it is fine.
func goodProvenNil() error {
	err := mayFail()
	if err != nil {
		return err
	}
	return nil
}

// goodNilExprUse returns the comparison itself: a nested nil test is an
// ordinary consuming use.
func goodNilExprUse() bool {
	err := mayFail()
	return err == nil
}

// goodAbortPath may panic with the error: panic paths have no exit edge.
func goodAbortPath() {
	if err := mayFail(); err != nil {
		panic(err)
	}
}

// goodCapturedLatch assigns a captured variable inside a closure: the
// assignment is the latch, the closure does not own the variable.
func goodCapturedLatch() error {
	var ferr error
	f := func() {
		ferr = mayFail()
	}
	f()
	return ferr
}

// dropOnOneBranch is the seeded bug: the error reaches a return on the true
// branch but is silently dropped on the fall-through.
func dropOnOneBranch(keep bool) error {
	err := mayFail() // want "error err assigned here does not reach a return or latch on every path"
	if keep {
		return err
	}
	return nil
}

// emptyNilCheck looks at the error and then forgets it: an empty-bodied
// nil test is not handling.
func emptyNilCheck() {
	err := mayFail() // want "error err assigned here does not reach a return or latch on every path"
	if err != nil {
	}
}

// overwrittenUnhandled clobbers a still-unhandled error with a new one.
func overwrittenUnhandled(retry bool) error {
	err := mayFail() // want "error assigned here is overwritten at line \d+ while still unhandled"
	if retry {
		err = alsoFails()
	}
	return err
}

// exitPathExempt reports and exits: os.Exit paths have no exit edge, so
// only the fall-through return is audited, and it consumes the error.
func exitPathExempt() error {
	err := mayFail()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fatal:", err)
		os.Exit(1)
	}
	return err
}

// selectCaseDrops captures an error inside one select case and returns it
// on only one branch of that case; the other branch falls out of the
// select and drops it.
func selectCaseDrops(ready, done chan struct{}, retry bool) error {
	select {
	case <-ready:
		err := mayFail() // want "error err assigned here does not reach a return or latch on every path"
		if retry {
			return err
		}
	case <-done:
		return nil
	}
	return nil
}

// selectCaseReturns hands the error back from every path of its case.
func selectCaseReturns(ready, done chan struct{}) error {
	select {
	case <-ready:
		err := mayFail()
		return err
	case <-done:
	}
	return nil
}
