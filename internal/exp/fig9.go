package exp

import (
	"fmt"
	"runtime"
)

// Fig9 reproduces Figure 9: F4T bulk transfer goodput (a) and request
// rate (b) across request sizes and core counts. Small requests are
// PCIe-bound (every 16 B request needs a 16 B command plus a 16 B
// payload DMA, §5.1). The points run as one Sweep.
func Fig9(quick bool) *Table {
	t := &Table{
		Title:  "Figure 9: F4T bulk transfer with various request sizes",
		Header: []string{"req B", "cores", "Gbps", "Mrps"},
	}
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	coreSteps := []int{2, 8, 16}
	if quick {
		sizes = []int{16, 128, 1024}
		coreSteps = []int{8}
	}
	results := make([]TransferResult, len(sizes)*len(coreSteps))
	Sweep(len(results), runtime.GOMAXPROCS(0), func(i int) {
		size, cores := sizes[i/len(coreSteps)], coreSteps[i%len(coreSteps)]
		results[i] = TransferPoint("f4t", false, size, cores, nil)
	})
	for i, res := range results {
		size, cores := sizes[i/len(coreSteps)], coreSteps[i%len(coreSteps)]
		t.AddRow(fmt.Sprintf("%d", size), fmt.Sprintf("%d", cores), f1(res.GoodputGbps), f1(res.Mrps))
	}
	t.Notes = append(t.Notes,
		"paper: 16 B requests with 16 cores reach 50.7 Gbps / 396 Mrps, bounded by PCIe bandwidth",
		"larger requests saturate the 100 Gbps link instead")
	return t
}
