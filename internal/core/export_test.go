package core

import "io"

// SaveDay writes day's journal segment by walking every record of the
// corpus: the whole-corpus form that the serving path replaced with
// WriteDaySegment over ScanDay.Commit's result. The journal tests keep
// it as an oracle that does not depend on Commit's ordering.
func (c *Corpus) SaveDay(w io.Writer, day int, meta DaySegmentMeta) error {
	c.mu.RLock()
	var obs []DayObs
	for _, iid := range c.sortedIIDsLocked() {
		for _, d := range c.iids[iid].Days {
			if d.Day == day {
				obs = append(obs, d)
			}
		}
	}
	c.mu.RUnlock()
	return WriteDaySegment(w, day, meta, obs)
}
