// Package scenarios embeds the shipped scenario specs that define
// experiments: `tocttou -experiment fig6` and `-experiment faultsweep`
// run fig6.yaml and faultsweep.yaml from this directory, so the files
// that scripts, the README and `tocttou -submit` use are the only
// definition of those campaigns.
package scenarios

import "embed"

// FS holds the experiment-defining specs, named <experiment>.yaml.
//
//go:embed fig6.yaml faultsweep.yaml
var FS embed.FS
