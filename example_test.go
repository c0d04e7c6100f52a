package tmsync_test

import (
	"fmt"

	"tmsync"
)

// Example is the quick start: a consumer sleeps in Retry until a
// producer's commit changes a word it read, then takes the item.
func Example() {
	sys := tmsync.New(tmsync.Eager, tmsync.Config{})
	var count uint64 // shared: touched only inside transactions

	left := make(chan uint64)
	go func() {
		thr := sys.NewThread()
		var n uint64
		thr.Atomic(func(tx *tmsync.Tx) {
			if n = tx.Read(&count); n == 0 {
				tmsync.Retry(tx) // sleep until a writer changes something we read
			}
			tx.Write(&count, n-1)
		})
		left <- n - 1
	}()

	thr := sys.NewThread()
	thr.Atomic(func(tx *tmsync.Tx) { tx.Write(&count, tx.Read(&count)+1) })
	fmt.Println("items left:", <-left)
	// Output: items left: 0
}
