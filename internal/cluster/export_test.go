package cluster

import "fmt"

// The placement and topology tests locate a rank's switch with SwitchOf;
// the network model computes the same switch index itself.

// SwitchOf returns the switch a node's port belongs to (its leaf switch
// under a hierarchical topology; leaf IDs coincide with flat switch
// IDs).
func (c *Config) SwitchOf(node int) int {
	if node < 0 || node >= c.Nodes {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", node, c.Nodes))
	}
	return node / c.PortsPerSwitch
}
