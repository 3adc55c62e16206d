package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one line of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// catalog is BENCHMARK.json as far as the program uses it. The file is
// the one place where the metric names, their units and bounds, the
// window and the workloads' reasons are written down: the result line is
// cut to its lists and -repeat checks against its bounds.
type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalog reads BENCHMARK.json from the working directory (the root of
// the checkout, where run.sh and the driver start the program) or from its
// parent (tests run inside bench/).
func loadCatalog() (*catalog, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json (run from the root of the checkout): %w", err)
	}
	c := &catalog{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if c.RunSeconds <= 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: no window or no metrics")
	}
	return c, nil
}

// why is the reason BENCHMARK.json gives for a workload.
func (c *catalog) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}
