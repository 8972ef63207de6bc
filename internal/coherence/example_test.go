package coherence_test

import (
	"fmt"

	"memories/internal/coherence"
	"memories/protocols"
)

// ExampleCheck model-checks a deliberately broken MESI variant whose
// dirty snoop-read downgrade forgot the writeback: the first reader is
// served by intervention, but memory is never updated, so a later read
// that misses with only clean sharers on the bus observes stale data.
func ExampleCheck() {
	tab := protocols.MustLoad("mesi")
	tab.Name = "mesi-no-wb"
	for sn := 0; sn < coherence.NumSnoopIns; sn++ { // writeback dropped
		tab.Set(coherence.SnoopRead, coherence.Modified, coherence.SnoopIn(sn),
			coherence.Shared, coherence.ActRespondModified)
	}
	err := coherence.Check(tab)
	fmt.Println(err)
	// Output:
	// protocol mesi-no-wb: stale read: cache2 observes stale data (state S+ S+ S- mem-) after [cache0 write, cache1 read, cache2 read]
}
